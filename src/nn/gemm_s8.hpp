// Quantized u8 x s8 GEMM for the int8 serving path.
//
// Row-major: the logical product is C[m x n] = A[m x k] * B[k x n] where A
// holds offset-binary activations (true int8 value q in [-127, 127] stored as
// q + 128, so every byte is in [1, 255]) and B holds symmetric per-channel
// int8 weights. Accumulation is int32; the +128 activation offset is removed
// exactly at write-back via the per-column weight sums (acc - 128 * colsum),
// so the stored accumulator equals the plain s8 x s8 int64 dot product
// whenever that fits int32 — bit-exactly, which the conv2d_int8_vs_ref audit
// pair enforces against the int64-accumulated reference in src/check.
//
// Kernel shape mirrors gemm.cpp: packed panels, a 6-row x 8-column micro-tile
// with register accumulators, and one full-k sweep per tile (no k-blocking —
// int8 panels are 4x smaller than fp32, so the whole k extent of a SESR conv
// fits in L1). Three micro-kernel builds sit behind a runtime-detect seam:
//   kGeneric  portable scalar loop (the non-AVX fallback CI keeps honest)
//   kAvx2     zero/sign-extend to s16 + _mm256_madd_epi16 (exact; maddubs'
//             s16 pair-sum saturates at 255*127*2 > 32767, so it is not used)
//   kVnni     AVX-VNNI _mm256_dpbusd_avx_epi32 (u8 x s8 dot-4, exact)
// All three produce identical int32 accumulators; SESR_DISABLE_INT8_SIMD=1
// pins the scalar kernel for forced-generic CI runs.
//
// The dequantize -> bias -> activation epilogue rides the accumulator store:
//   out = act(fmaf(float(acc), scale[col], bias[col]))
// using an explicit single-rounding fmaf so the reference in src/check and
// every kernel build agree bit-for-bit regardless of FP contraction flags.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/gemm.hpp"  // Epilogue

namespace sesr::nn {

// Micro-kernel selector for the int8 GEMM, mirroring nn::GemmIsa. Explicit
// values exist so the gemm_s8_* audit pairs can pin each build.
enum class GemmS8Isa { kAuto, kGeneric, kAvx2, kVnni };

// Force the int8 micro-kernel dispatch; returns false (dispatch unchanged)
// when the requested ISA is unsupported (or vector kernels are disabled via
// SESR_DISABLE_INT8_SIMD). Only call between kernel invocations.
bool set_gemm_s8_isa(GemmS8Isa isa);

// True when the respective vector build is usable on this CPU (and
// SESR_DISABLE_INT8_SIMD is not set).
bool gemm_s8_avx2_supported();
bool gemm_s8_vnni_supported();

// Fused write-back applied to every int32 accumulator (see file comment).
// `scale` holds one dequantization factor per output column — for the conv
// path that is activation_scale * weight_scale[out_channel].
struct S8Epilogue {
  const float* scale = nullptr;        // n factors; required
  const float* bias = nullptr;         // n biases, or nullptr
  Epilogue::Act act = Epilogue::Act::kNone;
  const float* prelu_alpha = nullptr;  // n slopes; required iff act == kPRelu
};

// The canonical scalar quantizer: round-half-away-from-zero, clamp to
// [-127, 127]. Every producer of int8 data in the repo (weight quantization,
// the implicit im2col row source, the streaming row path, src/check)
// must funnel through this exact expression; divergent rounding was the
// "reference drift" failure mode the audit pairs exist to catch. The
// trunc(r + 0.5) form equals std::round for every float with |r| <= 127
// (the add is exact or rounds within the same unit interval there) while
// staying auto-vectorizable — std::round is a libm call at baseline ISA,
// and this runs once per input element per quantized layer.
inline std::int8_t quantize_value(float v, float inv_scale) {
  float r = v * inv_scale;
  r = r < -127.0F ? -127.0F : (r > 127.0F ? 127.0F : r);
  return static_cast<std::int8_t>(static_cast<std::int32_t>(r + (r >= 0.0F ? 0.5F : -0.5F)));
}

// Scale floor for all-zero (or subnormal-max) tensors: maps every value to
// quantized 0 while keeping scale finite and the dequant product exact.
inline constexpr float kDegenerateQuantScale = 1.0F / 127.0F;

// Quantizes n fp32 values into offset-binary u8 (quantize_value(v) + 128) —
// the bulk form the conv path uses to quantize a whole activation tensor once
// per layer instead of once per im2col tap. Bit-identical to the scalar
// expression element for element (the AVX2 build mirrors clamp, the signed
// half-offset, and the truncating convert exactly); SESR_DISABLE_INT8_SIMD
// pins the scalar loop.
void quantize_u8_run(const float* src, std::uint8_t* dst, std::int64_t n, float inv_scale);

// Per-column sums of B (n entries), needed by the write-back to remove the
// +128 activation offset. Computed once per weight tensor at quantize time.
std::vector<std::int32_t> s8_column_sums(std::span<const std::int8_t> b, std::int64_t k,
                                         std::int64_t n);

// Produces logical A row `row`, k-slice [p0, p0 + kc), as offset-binary u8
// bytes into dst. Called from inside the A-pack, so the quantized im2col
// matrix never exists in memory (mirrors Fp16RowSource).
using S8RowSource = void (*)(const void* ctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                             std::uint8_t* dst);

// C[m x n] (fp32) = epilogue(A * B - 128 * colsum) with A generated row-wise
// by `src`. B is [k x n] row-major s8; colsum holds the n column sums of B.
void gemm_s8_rows(S8RowSource src, const void* ctx, std::span<const std::int8_t> b,
                  std::span<const std::int32_t> colsum, std::span<float> c, std::int64_t m,
                  std::int64_t k, std::int64_t n, const S8Epilogue& epilogue);

// Same with an explicit contiguous A (m x k offset-binary u8, row-major).
void gemm_s8(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
             std::span<const std::int32_t> colsum, std::span<float> c, std::int64_t m,
             std::int64_t k, std::int64_t n, const S8Epilogue& epilogue);

// Raw-accumulator variant for the audits: writes the offset-corrected int32
// accumulators (acc - 128 * colsum) without dequantization. Bit-comparable
// against the int64 reference whenever the true product fits int32.
void gemm_s8_i32(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
                 std::span<const std::int32_t> colsum, std::span<std::int32_t> c, std::int64_t m,
                 std::int64_t k, std::int64_t n);

}  // namespace sesr::nn
