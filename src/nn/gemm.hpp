// Single-threaded SGEMM used by the convolutions, fp32 and fp16 alike.
//
// Row-major throughout: C[m x n] (+)= A[m x k] * B[k x n]. One register-tiled,
// cache-blocked macro-kernel serves every entry point: A and B are packed into
// contiguous MR-row / NR-column panels and multiplied by a 6x16 micro-kernel
// whose accumulators live in registers, or by a 16x4 tile (vector lanes along
// rows) when n <= 4, so the narrow tails of collapsed SESR nets keep every
// lane busy. Both tiles sum each output in the same p-sequential order, so
// the choice never moves a bit. The micro-kernels dispatch to an AVX2+FMA
// build at runtime when the CPU supports it.
//
// A rows always come from a row producer (RowSource): a stored fp32 matrix,
// contiguous or transposed, or an implicit operand such as the conv's im2col
// rows, built on demand inside the A-pack so the column matrix never exists in
// memory. B is fp32 or binary16 and is widened row by row inside its pack.
// Accumulation is fp32 in every case, so binary16 operands give the bits of
// widening them up front. Threading happens *above* this layer — the
// convolution stripes its row space and calls gemm per stripe — so every call
// here is deterministic and allocation-free (packing buffers come from the
// per-thread scratch arena).
//
// `gemm_zero_skip` keeps the old branchy zero-skipping kernel. It only pays
// off when A is mostly zeros, which in this codebase means one thing: the
// padded identity probes of Algorithm 1 (collapse). Everything else should
// use the dense kernels.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/fp16.hpp"

namespace sesr::nn {

// Which micro-kernel build the dense GEMM dispatches to. kAuto picks the best
// the CPU supports (the default, chosen at startup); the explicit values exist
// so the numerical audit (src/check) can sweep the scalar and AVX2 kernels as
// separate optimized-vs-reference pairs on the same machine.
enum class GemmIsa { kAuto, kGeneric, kAvx2 };

// Force the micro-kernel dispatch; returns false (leaving the dispatch
// unchanged) when the requested ISA is not supported by this CPU. Only call
// between kernel invocations — not while another thread is inside a GEMM.
bool set_gemm_isa(GemmIsa isa);

// True when the AVX2+FMA micro-kernel is available on this CPU.
bool gemm_avx2_supported();

// Optional activation fused into the GEMM write-back. The micro-kernel
// applies it on the *last* k-block's store only (bias rides on the first
// block's store), so the fused result is bit-identical to running the plain
// GEMM and then a separate elementwise activation pass over C — minus the
// extra full-tensor read/write. kPRelu reads one slope per output column
// (i.e. per conv output channel when C is the im2col output).
struct Epilogue {
  enum class Act { kNone, kRelu, kPRelu };
  Act act = Act::kNone;
  const float* prelu_alpha = nullptr;  // n slopes; required iff act == kPRelu
};

// C = A * B. C must hold m*n elements; it is overwritten.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c, std::int64_t m,
          std::int64_t k, std::int64_t n);

// C = act(A * B + bias) with the activation applied in the micro-kernel's
// final store (see Epilogue). bias may be empty (no bias add), and
// Epilogue{} applies no activation.
void gemm_fused(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
                std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n,
                const Epilogue& epilogue);

// Yields the fp32 values of logical A row `row`, k-slice [p0, p0 + kc): either
// a pointer into the caller's own storage (a stored fp32 row) or `buf` (kc
// floats) after filling it. Called once per (row, k-block) from inside the
// A-pack, so the values go straight into the packed panel without an
// intermediate A matrix ever existing in memory.
using RowSource = const float* (*)(const void* ctx, std::int64_t row, std::int64_t p0,
                                   std::int64_t kc, float* buf);

// gemm_fused with an implicit A operand: rows are generated on demand by
// `src` instead of being read from a stored [m x k] matrix. This is how the
// conv forward runs im2col: the lowering happens inside the pack. B [k x n]
// is fp32 or binary16 (widened inside the B-pack); C is fp32, and callers
// that want fp16 activations round the output stripe afterwards. Results
// are bit-identical to building A with the same producer and widening B
// before calling gemm_fused, because the packed panels are identical.
void gemm_rows(RowSource src, const void* ctx, std::span<const float> b,
               std::span<const float> bias, std::span<float> c, std::int64_t m, std::int64_t k,
               std::int64_t n, const Epilogue& epilogue);
void gemm_rows(RowSource src, const void* ctx, std::span<const fp16::Half> b,
               std::span<const float> bias, std::span<float> c, std::int64_t m, std::int64_t k,
               std::int64_t n, const Epilogue& epilogue);

// C = A^T * B where A is [k x m] row-major (so A^T is [m x k]).
void gemm_at_b(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n);

// C += A^T * B.
void gemm_at_b_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

// C = A * B^T where B is [n x k] row-major (so B^T is [k x n]).
void gemm_a_bt(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n);

// C = A * B with rows of A scanned once and zero entries skipped. Use only
// when A is overwhelmingly zero (Algorithm-1 identity probes); on dense data
// the branch makes it several times slower than gemm().
void gemm_zero_skip(std::span<const float> a, std::span<const float> b, std::span<float> c,
                    std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace sesr::nn
