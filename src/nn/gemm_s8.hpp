// Quantized u8 x s8 convolution kernels for the int8 serving path.
//
// The A operand (activations) is never packed: the conv quantizes its input
// once into a zero-point-padded offset-binary u8 image (true int8 value q in
// [-127, 127] stored as q + 128, so every byte is in [1, 255]; the SAME border
// and the trailing slack hold 128, the quantized zero). Every micro-kernel
// reads its A rows in place from that image — output pixel x of an output
// row reads, for each kernel row ky, one contiguous k-run of kw*in_c bytes
// starting at image row (row + ky), pixel x. Adjacent output pixels are
// `in_c` bytes apart, so a tile of consecutive pixels along one row is a
// strided view of the image. Each run is read in whole 4-byte dot groups
// (16-byte blocks for the 4-channel layout); the bytes past kw*in_c meet zero
// weights, so their values never reach an accumulator.
//
// B (weights) is packed once per weight tensor (pack_s8_weights, called by
// quantize_conv_weights) into one of two layouts, chosen by the channel count:
//   wide    n > 4: per dot group, all output channels (padded to 16) x 4
//           bytes — one 64-byte row per group, read as one zmm (or two ymm)
//   narrow  n <= 4: per 16-byte A block (4 dot groups), 4 channels x 4 groups
//           x 4 bytes — one zmm holds 4 channels x 4 k-groups of one pixel
// Padding lanes (k past kw*in_c, channels past n) hold zero weights.
//
// Accumulation is int32 modulo 2^32; the +128 activation offset is removed
// exactly at write-back via the per-column weight sums (acc - 128 * colsum),
// so the stored accumulator equals the plain s8 x s8 int64 dot product
// whenever that fits int32 — bit-exactly, which the conv2d_int8_vs_ref and
// gemm_s8_* audit pairs enforce against the int64 reference in src/check.
// Five micro-kernel builds sit behind a runtime-detect seam:
//   kGeneric     portable scalar loop (the non-AVX fallback CI keeps honest)
//   kAvx2        zero/sign-extend to s16 + _mm256_madd_epi16 (exact; maddubs'
//                s16 pair-sum saturates at 255*127*2 > 32767, so it is not used)
//   kVnni        AVX-VNNI _mm256_dpbusd_avx_epi32 (u8 x s8 dot-4, exact)
//   kAvx512Vnni  AVX-512 VNNI _mm512_dpbusd_epi32: a wide tile is 16 pixels
//                along one row x 16 channels (one zmm per pixel); a narrow
//                tile is 16 pixels with one zmm of 4 channels x 4 k-groups
//                each, fed by a 16-byte A broadcast and summed at the store
//   kAmx         AMX-INT8 tdpbusd for the wide layout (narrow weights run the
//                kAvx512Vnni tiles). An A tile is 16 consecutive pixels x one
//                K chunk (at most 64 bytes) of their k-runs, loaded in place
//                with tileloadd at stride in_c (the rows overlap, which is
//                legal). A B tile is the chunk's dot-group rows of the wide
//                packing at stride cols * 4: no new layout or pack. Four C
//                tiles (64 pixels x 16 channels) accumulate per step; a row's
//                remainder is one step of fewer tiles, whose pixels past the
//                row end are computed and never stored. The tile state is
//                configured and released within one conv_s8_rows call, and
//                the write-back is the kAvx512Vnni store. Linux only: the
//                process must be granted the tile data state (arch_prctl
//                ARCH_REQ_XCOMP_PERM), once. The tile instructions are inline
//                asm because gcc 12's intrinsics under-declare memory:
//                _tile_loadconfig names 8 of the config's 64 bytes (gcc drops
//                the stores that fill the rest, and tileloadd faults), and
//                _tile_loadd names none (stores to A or B bytes may move past
//                the load).
// All five produce identical int32 accumulators (tdpbusd wraps, like
// vpdpbusd); SESR_DISABLE_INT8_SIMD=1 pins the scalar kernel for
// forced-generic CI runs.
//
// The dequantize -> bias -> activation epilogue rides the accumulator store:
//   out = act(fmaf(float(acc), scale[col], bias[col])) (+ residual)
// using an explicit single-rounding fmaf so the reference in src/check and
// every kernel build agree bit-for-bit regardless of FP contraction flags.
// The optional residual is one float add of a same-layout fp32 tensor (the
// add_inplace a later pass would make). The store writes out as fp32, or
// (conv_s8_rows_u8) requantizes it in registers with the next layer's
// quantizer, quantize_value(out, inv) + 128, and writes that byte: the u8
// carrier between int8 layers, so the next conv reads its image without a
// separate quantize pass. Every build has the u8 store (the scalar store,
// the AVX2-family 8-channel store and the AVX-512 16-lane store, which also
// serves AMX), bit-identical to quantizing the fp32 output afterwards.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/gemm.hpp"  // Epilogue

namespace sesr::nn {

// Micro-kernel selector for the int8 kernels, mirroring nn::GemmIsa. Explicit
// values exist so the gemm_s8_* audit pairs can pin each build.
enum class GemmS8Isa { kAuto, kGeneric, kAvx2, kVnni, kAvx512Vnni, kAmx };

// Force the int8 micro-kernel dispatch; returns false (dispatch unchanged)
// when the requested ISA is unsupported (or vector kernels are disabled via
// SESR_DISABLE_INT8_SIMD). Only call between kernel invocations.
bool set_gemm_s8_isa(GemmS8Isa isa);

// True when the respective vector build is usable on this CPU (and
// SESR_DISABLE_INT8_SIMD is not set).
bool gemm_s8_avx2_supported();
bool gemm_s8_vnni_supported();
bool gemm_s8_avx512vnni_supported();
// AMX-TILE + AMX-INT8 on the CPU, the tile data permission granted, and the
// kAvx512Vnni build (which serves the narrow layout) usable.
bool gemm_s8_amx_supported();

// Name of the build the dispatch currently runs: "generic", "avx2", "vnni",
// "avx512vnni" or "amx".
const char* gemm_s8_kernel_name();

// Fused write-back applied to every int32 accumulator (see file comment).
// `scale` holds one dequantization factor per output column — for the conv
// path that is activation_scale * weight_scale[out_channel].
struct S8Epilogue {
  const float* scale = nullptr;        // n factors; required
  const float* bias = nullptr;         // n biases, or nullptr
  Epilogue::Act act = Epilogue::Act::kNone;
  const float* prelu_alpha = nullptr;  // n slopes; required iff act == kPRelu
  // Added after the activation, laid out like the output rows (pixel x of row
  // r, channel j at residual[(r * width + x) * n + j]); nullptr: none.
  const float* residual = nullptr;
};

// The canonical scalar quantizer: round-half-away-from-zero, clamp to
// [-127, 127], NaN to 0 (the zero point). Every producer of int8 data in the
// repo (weight quantization, the bulk activation quantizer, src/check) must
// funnel through this exact expression; divergent rounding was the
// "reference drift" failure mode the audit pairs exist to catch. The
// trunc(r + 0.5) form equals std::round for every float with |r| <= 127 (the
// add is exact or rounds within the same unit interval there) while staying
// auto-vectorizable — std::round is a libm call at baseline ISA, and this
// runs once per input element per quantized layer. The NaN select comes
// first so the int32 cast never sees a NaN (undefined).
inline std::int8_t quantize_value(float v, float inv_scale) {
  float r = v * inv_scale;
  r = r == r ? r : 0.0F;
  r = r < -127.0F ? -127.0F : (r > 127.0F ? 127.0F : r);
  return static_cast<std::int8_t>(static_cast<std::int32_t>(r + (r >= 0.0F ? 0.5F : -0.5F)));
}

// Scale floor for all-zero (or subnormal-max) tensors: maps every value to
// quantized 0 while keeping scale finite and the dequant product exact.
inline constexpr float kDegenerateQuantScale = 1.0F / 127.0F;

// Quantizes n fp32 values into offset-binary u8 (quantize_value(v) + 128) —
// the bulk form a conv uses to quantize an fp32 input once per layer.
// Bit-identical to the scalar expression element for element (the AVX2 and
// AVX-512 builds mirror its NaN handling, clamp, signed half-offset and
// truncating convert exactly). The build follows the kernel dispatch:
// scalar for kGeneric (and under SESR_DISABLE_INT8_SIMD), AVX2 for kAvx2 and
// kVnni, AVX-512 for kAvx512Vnni and kAmx.
void quantize_u8_run(const float* src, std::uint8_t* dst, std::int64_t n, float inv_scale);

// Per-column sums of B (n entries), needed by the write-back to remove the
// +128 activation offset. Computed once per weight tensor at quantize time.
std::vector<std::int32_t> s8_column_sums(std::span<const std::int8_t> b, std::int64_t k,
                                         std::int64_t n);

// B in the micro-kernels' layout (see file comment). Built once per weight
// tensor; every kernel build reads the same bytes.
struct S8PackedWeights {
  std::vector<std::uint8_t> data;
  std::int64_t kh = 0;     // kernel rows: one A k-run each
  std::int64_t run = 0;    // A bytes read per k-run: kw*in_c rounded up to 4 (16 if narrow)
  std::int64_t cols = 0;   // channel stride: n rounded up to 16 (4 if narrow)
  std::int64_t n = 0;      // output channels
  bool narrow = false;     // n <= 4: the 4-channel k-interleaved layout
};

// Packs B = [kh * kwc x n] row-major s8 (an HWIO weight tensor flattened, with
// kwc = kw * in_c) for the micro-kernels.
S8PackedWeights pack_s8_weights(std::span<const std::int8_t> b, std::int64_t kh,
                                std::int64_t kwc, std::int64_t n);

// The in-place A operand: a zero-point-padded u8 image. Output pixel x of
// output row r reads k-run ky at data + (r + ky) * row_stride + x *
// pixel_stride. The caller guarantees that s8_image_slack bytes past the
// last k-run of the last row are readable (their values do not matter).
struct S8Image {
  const std::uint8_t* data = nullptr;
  std::int64_t pixel_stride = 0;  // in_c
  std::int64_t row_stride = 0;    // padded image width * in_c
  std::int64_t width = 0;         // output pixels per row
};

// Bytes a kernel build may read past the end of the last k-run of an image's
// last pixel (pixels pixel_stride bytes apart), for weights packed from
// kwc-byte k-runs: up to 15 more pixels of an AMX tile past the row end, plus
// the run's rounding past kwc.
std::int64_t s8_image_slack(const S8PackedWeights& w, std::int64_t kwc,
                            std::int64_t pixel_stride);

// Output rows [row0, row1) of the conv: c[(r * width + x) * n + j] =
// epilogue(sum over the kh k-runs of pixel (r, x) - 128 * colsum[j]).
void conv_s8_rows(const S8Image& a, const S8PackedWeights& w,
                  std::span<const std::int32_t> colsum, std::int64_t row0, std::int64_t row1,
                  float* c, const S8Epilogue& epilogue);

// The same rows stored as requantized u8 bytes: pixel x, channel j of output
// row r at q[r * q_row_stride + x * n + j] = quantize_value(epilogue value,
// q_inv_scale) + 128. Only those width * n bytes of each row are written.
void conv_s8_rows_u8(const S8Image& a, const S8PackedWeights& w,
                     std::span<const std::int32_t> colsum, std::int64_t row0, std::int64_t row1,
                     std::uint8_t* q, std::int64_t q_row_stride, float q_inv_scale,
                     const S8Epilogue& epilogue);

// C[m x n] (fp32) = epilogue(A * B - 128 * colsum) for a contiguous row-major
// A (m x k offset-binary u8) and B ([k x n] row-major s8) — a 1x1 conv over
// an image of m pixels with in_c = k, run through the same kernels.
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
