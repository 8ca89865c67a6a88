#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "tensor/scratch.hpp"

namespace sesr::nn {

namespace {
void check_sizes(std::span<const float> a, std::span<const float> b, std::span<float> c,
                 std::int64_t m, std::int64_t k, std::int64_t n, bool a_transposed,
                 bool b_transposed) {
  const std::int64_t a_need = a_transposed ? k * m : m * k;
  const std::int64_t b_need = b_transposed ? n * k : k * n;
  if (m < 0 || k < 0 || n < 0 || static_cast<std::int64_t>(a.size()) < a_need ||
      static_cast<std::int64_t>(b.size()) < b_need || static_cast<std::int64_t>(c.size()) < m * n) {
    throw std::invalid_argument("gemm: buffer sizes inconsistent with m/k/n");
  }
}

// ---------------------------------------------------------------------------
// Register-tiled kernel: C tiles of MR x NR accumulate in registers while A/B
// stream from packed panels. Blocking constants (floats):
//   KC * NR panel of B  ~ 16 KiB  -> L1-resident across one A block
//   MC * KC panel of A  ~ 96 KiB  -> L2-resident across one B panel sweep
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kMc = 96;  // multiple of kMr
constexpr std::int64_t kNc = 1024;

// Register tile of the narrow-N kernel (see micro_tile_narrow_body below).
constexpr std::int64_t kMrN = 16;  // rows per narrow tile (2 vectors of 8)
constexpr std::int64_t kNrN = 4;   // columns per narrow tile

// Every A operand reaches the pack through a RowSource: one call per (row,
// k-block) yields the row's fp32 values, and the pack interleaves one panel's
// rows into the MR-row layout. A stored fp32 matrix is just the strided
// producer below; the conv forward passes an im2col producer, so the column
// matrix of the explicit scheme is never written (the lowering happens inside
// the pack). The panel height is a template argument so the interleave loop
// unrolls; the narrow-N convs (4 MACs per packed A value) are pack-bound.
// rowbuf holds mr_panel rows of kc floats.
template <std::int64_t mr_panel>
void pack_a_rows(RowSource src, const void* ctx, std::int64_t i0, std::int64_t mc,
                 std::int64_t p0, std::int64_t kc, float* rowbuf, float* dst) {
  const float* rows[mr_panel];
  for (std::int64_t ii = 0; ii < mc; ii += mr_panel) {
    const std::int64_t ib = std::min(mr_panel, mc - ii);
    for (std::int64_t i = 0; i < ib; ++i) rows[i] = src(ctx, i0 + ii + i, p0, kc, rowbuf + i * kc);
    float* panel = dst + ii * kc;
    if (ib == mr_panel) {
      for (std::int64_t p = 0; p < kc; ++p) {
        for (std::int64_t i = 0; i < mr_panel; ++i) panel[p * mr_panel + i] = rows[i][p];
      }
      continue;
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      std::int64_t i = 0;
      for (; i < ib; ++i) panel[p * mr_panel + i] = rows[i][p];
      for (; i < mr_panel; ++i) panel[p * mr_panel + i] = 0.0F;  // pad to full tiles
    }
  }
}

// Logical A element (i, p) is a[i * rs + p * cs]; the stride pair folds the
// transposed variant (gemm_at_b) into the same producer. Contiguous rows are
// read in place.
struct StridedRows {
  const float* a;
  std::int64_t rs;
  std::int64_t cs;
};

const float* strided_row(const void* vctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                         float* buf) {
  const auto& s = *static_cast<const StridedRows*>(vctx);
  const float* src = s.a + row * s.rs + p0 * s.cs;
  if (s.cs == 1) return src;
  for (std::int64_t p = 0; p < kc; ++p) buf[p] = src[p * s.cs];
  return buf;
}

// B operand: fp32 with logical element (p, j) at f32[p * rs + j * cs] (cs != 1
// for gemm_a_bt), or row-major binary16 with row stride rs.
struct BOperand {
  const float* f32 = nullptr;
  const fp16::Half* f16 = nullptr;
  std::int64_t rs = 0;
  std::int64_t cs = 1;
};

// Row p, columns [j0, j0 + nc) of B as fp32: the source itself when it is a
// contiguous fp32 row, else gathered or widened into rowbuf.
const float* b_row(const BOperand& b, std::int64_t p, std::int64_t j0, std::int64_t nc,
                   float* rowbuf) {
  if (b.f16 != nullptr) {
    fp16::convert_to_float(b.f16 + p * b.rs + j0, rowbuf, nc);
    return rowbuf;
  }
  const float* src = b.f32 + p * b.rs + j0 * b.cs;
  if (b.cs == 1) return src;
  for (std::int64_t j = 0; j < nc; ++j) rowbuf[j] = src[j * b.cs];
  return rowbuf;
}

// Each B row is read (and widened, for binary16) once into an L1-sized row
// and scattered into the NR-column panels. Staging a whole kc x nc block to
// fp32 first would double the pack traffic through L2 and erase the bandwidth
// the half-width weights save. The panels hold the same values whatever the
// storage type, so fp16 results are bit-identical to widening B up front.
template <std::int64_t nr_panel>
void pack_b(const BOperand& b, std::int64_t p0, std::int64_t kc, std::int64_t j0, std::int64_t nc,
            float* rowbuf, float* dst) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* row = b_row(b, p0 + p, j0, nc, rowbuf);
    for (std::int64_t jj = 0; jj < nc; jj += nr_panel) {
      const std::int64_t jb = std::min(nr_panel, nc - jj);
      float* panel = dst + jj * kc + p * nr_panel;
      std::int64_t j = 0;
      for (; j < jb; ++j) panel[j] = row[jj + j];
      for (; j < nr_panel; ++j) panel[j] = 0.0F;
    }
  }
}

// The two tile bodies are inlined into each ISA-specific wrapper below so the
// compiler vectorizes them for that target. The full-tile body only ever
// indexes the accumulator array with compile-time constants — that is what
// lets the register allocator keep all 6x16 accumulators in vector registers;
// a single variable-index access would spill the array to the stack and
// cripple the inner loop (measured ~5x slower). The `omp simd` pragma (enabled
// by -fopenmp-simd, no runtime dependency) is load-bearing: without it GCC
// leaves the rank-1 update scalar even at -O3 with FMA available (measured
// ~1 GMAC/s plain vs ~39 GMAC/s with the pragma on this machine). Edge tiles
// take the variable epilogue and the spill, but they only run on the last
// row/column panel.
// `bias`, when non-null, is added on the store (only with accumulate==false).
// `epi`, when non-null, is the fused activation applied to the just-stored
// tile values; gemm_tiled only passes it on the last k-block, after the bias
// and all partial sums have landed, so the fused result matches a separate
// elementwise pass bit for bit. ReLU must stay the explicit `v > 0 ? v : 0`
// branch (not alpha=0 PReLU, which would turn negatives into -0.0F).
__attribute__((always_inline)) inline void apply_epilogue_rows(float* c, std::int64_t ldc,
                                                               std::int64_t mr, std::int64_t nr,
                                                               const Epilogue* epi) {
  if (epi == nullptr || epi->act == Epilogue::Act::kNone) return;
  if (epi->act == Epilogue::Act::kRelu) {
    for (std::int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
#pragma omp simd
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = crow[j] > 0.0F ? crow[j] : 0.0F;
    }
  } else {
    const float* alpha = epi->prelu_alpha;
    for (std::int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
#pragma omp simd
      for (std::int64_t j = 0; j < nr; ++j) {
        const float v = crow[j];
        crow[j] = v > 0.0F ? v : alpha[j] * v;
      }
    }
  }
}

__attribute__((always_inline)) inline void micro_tile_full(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < kMr; ++i) {
    float* crow = c + i * ldc;
    if (accumulate) {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] += acc[i][j];
    } else if (bias != nullptr) {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[i][j] + bias[j];
    } else {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[i][j];
    }
  }
  apply_epilogue_rows(c, ldc, kMr, kNr, epi);
}

__attribute__((always_inline)) inline void micro_tile_edge(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, std::int64_t mr,
                                                           std::int64_t nr, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      if (accumulate) {
        crow[j] += acc[i][j];
      } else {
        crow[j] = acc[i][j] + (bias != nullptr ? bias[j] : 0.0F);
      }
    }
  }
  apply_epilogue_rows(c, ldc, mr, nr, epi);
}

__attribute__((always_inline)) inline void micro_kernel_body(
    const float* ap, const float* bp, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate, const float* bias, const Epilogue* epi) {
  if (mr == kMr && nr == kNr) {
    micro_tile_full(ap, bp, kc, c, ldc, accumulate, bias, epi);
  } else {
    micro_tile_edge(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
  }
}

using MicroKernelFn = void (*)(const float*, const float*, std::int64_t, float*, std::int64_t,
                               std::int64_t, std::int64_t, bool, const float*, const Epilogue*);

void micro_kernel_generic(const float* ap, const float* bp, std::int64_t kc, float* c,
                          std::int64_t ldc, std::int64_t mr, std::int64_t nr, bool accumulate,
                          const float* bias, const Epilogue* epi) {
  micro_kernel_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, std::int64_t mr,
                                                           std::int64_t nr, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  micro_kernel_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}
#endif

MicroKernelFn pick_micro_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return micro_kernel_avx2;
#endif
  return micro_kernel_generic;
}

// ---------------------------------------------------------------------------
// Narrow-N register tile. Collapsed SESR tails are n = 4 (out_c = 4 at x2),
// and the 6x16 tile then burns 3/4 of every FMA on masked-out columns
// (~7 GFLOP/s measured). Flipping the tile — vector lanes along ROWS, scalar
// broadcast along the 4 columns — keeps every lane live: acc[j] spans kMrN
// packed rows, B values broadcast. The per-element summation order is still
// p-sequential within the k-block, so results are bit-identical to the wide
// tile (Gemm.NarrowTileMatchesWideTile).
__attribute__((always_inline)) inline void micro_tile_narrow_body(
    const float* ap, const float* bp, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate, const float* bias, const Epilogue* epi) {
  float acc[kNrN][kMrN] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMrN;
    const float* brow = bp + p * kNrN;
    for (std::int64_t j = 0; j < kNrN; ++j) {
      const float bv = brow[j];
#pragma omp simd
      for (std::int64_t i = 0; i < kMrN; ++i) acc[j][i] += arow[i] * bv;
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      if (accumulate) {
        crow[j] += acc[j][i];
      } else {
        crow[j] = acc[j][i] + (bias != nullptr ? bias[j] : 0.0F);
      }
    }
  }
  apply_epilogue_rows(c, ldc, mr, nr, epi);
}

void micro_kernel_narrow_generic(const float* ap, const float* bp, std::int64_t kc, float* c,
                                 std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                                 bool accumulate, const float* bias, const Epilogue* epi) {
  micro_tile_narrow_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void micro_kernel_narrow_avx2(
    const float* ap, const float* bp, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate, const float* bias, const Epilogue* epi) {
  micro_tile_narrow_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}
#endif

MicroKernelFn pick_narrow_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_narrow_avx2;
  }
#endif
  return micro_kernel_narrow_generic;
}

// Atomic so the audit's set_gemm_isa() between sweeps is race-free against
// worker threads reading the dispatch inside gemm_tiled.
std::atomic<MicroKernelFn> g_micro_kernel{pick_micro_kernel()};
std::atomic<MicroKernelFn> g_narrow_kernel{pick_narrow_kernel()};

// The one macro-kernel: packs panels and walks register tiles. Summation
// over k happens in kKc blocks in a fixed order, so results for a given
// (m, k, n) are bit-identical regardless of how callers partition the row
// space. n <= kNrN takes the narrow tile (one column block, A packed kMrN rows
// per panel, B packed into a kNrN-wide panel); everything else the 6x16 one.
// Bias rides on the first k-block's store (unless accumulating into C) and
// the epilogue on the last block's, once every partial sum has landed.
void gemm_tiled(RowSource a_rows, const void* a_ctx, const BOperand& b, const float* bias,
                float* c, std::int64_t m, std::int64_t k, std::int64_t n, bool accumulate,
                const Epilogue* epi) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = bias != nullptr ? bias[j] : 0.0F;
        apply_epilogue_rows(c + i * n, n, 1, n, epi);
      }
    }
    return;
  }
  const bool narrow = n <= kNrN;
  const std::int64_t mr = narrow ? kMrN : kMr;
  const std::int64_t nr = narrow ? kNrN : kNr;
  const MicroKernelFn micro_kernel =
      (narrow ? g_narrow_kernel : g_micro_kernel).load(std::memory_order_relaxed);
  const std::int64_t nc_max = std::min(n, kNc);
  const std::int64_t nc_round = (nc_max + nr - 1) / nr * nr;
  const std::int64_t kc_max = std::min(k, kKc);
  float* bpack = scratch_floats(ScratchSlot::kGemmPackB,
                                static_cast<std::size_t>(nc_round * kc_max))
                     .data();
  float* apack =
      scratch_floats(ScratchSlot::kGemmPackA, static_cast<std::size_t>(kMc * kc_max)).data();
  float* browbuf =
      scratch_floats(ScratchSlot::kGemmRowB, static_cast<std::size_t>(nc_max)).data();
  float* arowbuf =
      scratch_floats(ScratchSlot::kGemmRowA, static_cast<std::size_t>(mr * kc_max)).data();
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
      const std::int64_t kc = std::min(kKc, k - p0);
      const bool last_k = p0 + kKc >= k;
      const bool acc_block = accumulate || p0 > 0;
      const float* bias_block = (!acc_block && bias != nullptr) ? bias : nullptr;
      // Activation fires only once every k-partial has been summed into C.
      const Epilogue* epi_block = (last_k && epi != nullptr) ? epi : nullptr;
      if (narrow) {
        pack_b<kNrN>(b, p0, kc, j0, nc, browbuf, bpack);
      } else {
        pack_b<kNr>(b, p0, kc, j0, nc, browbuf, bpack);
      }
      for (std::int64_t i0 = 0; i0 < m; i0 += kMc) {
        const std::int64_t mc = std::min(kMc, m - i0);
        if (narrow) {
          pack_a_rows<kMrN>(a_rows, a_ctx, i0, mc, p0, kc, arowbuf, apack);
        } else {
          pack_a_rows<kMr>(a_rows, a_ctx, i0, mc, p0, kc, arowbuf, apack);
        }
        for (std::int64_t jj = 0; jj < nc; jj += nr) {
          // Bias and PReLU slopes are per output column: shift both to this
          // tile's column origin.
          Epilogue tile_epi;
          const Epilogue* tile_epi_ptr = nullptr;
          if (epi_block != nullptr && epi_block->act != Epilogue::Act::kNone) {
            tile_epi.act = epi_block->act;
            tile_epi.prelu_alpha = epi_block->prelu_alpha != nullptr
                                       ? epi_block->prelu_alpha + j0 + jj
                                       : nullptr;
            tile_epi_ptr = &tile_epi;
          }
          for (std::int64_t ii = 0; ii < mc; ii += mr) {
            micro_kernel(apack + ii * kc, bpack + jj * kc, kc, c + (i0 + ii) * n + (j0 + jj), n,
                         std::min(mr, mc - ii), std::min(nr, nc - jj), acc_block,
                         bias_block != nullptr ? bias_block + j0 + jj : nullptr, tile_epi_ptr);
          }
        }
      }
    }
  }
}

// Dense fp32 GEMM on a stored A (logical element (i, p) at a[i * a_rs + p * a_cs]).
void gemm_strided(const float* a, std::int64_t a_rs, std::int64_t a_cs, const BOperand& b,
                  const float* bias, float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate, const Epilogue* epi = nullptr) {
  const StridedRows rows{a, a_rs, a_cs};
  gemm_tiled(strided_row, &rows, b, bias, c, m, k, n, accumulate, epi);
}

BOperand fp32_b(const float* b, std::int64_t rs, std::int64_t cs) {
  return BOperand{.f32 = b, .rs = rs, .cs = cs};
}

void check_epilogue(std::span<const float> bias, std::int64_t n, const Epilogue& epilogue) {
  if (!bias.empty() && static_cast<std::int64_t>(bias.size()) < n) {
    throw std::invalid_argument("gemm: bias must hold n elements");
  }
  if (epilogue.act == Epilogue::Act::kPRelu && epilogue.prelu_alpha == nullptr) {
    throw std::invalid_argument("gemm: kPRelu requires prelu_alpha");
  }
}

// Shared by both gemm_rows overloads.
void check_rows(RowSource src, std::size_t b_size, std::span<const float> bias,
                std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n,
                const Epilogue& epilogue) {
  if (src == nullptr) throw std::invalid_argument("gemm_rows: null row source");
  if (m < 0 || k < 0 || n < 0 || static_cast<std::int64_t>(b_size) < k * n ||
      static_cast<std::int64_t>(c.size()) < m * n) {
    throw std::invalid_argument("gemm_rows: buffer sizes inconsistent with m/k/n");
  }
  check_epilogue(bias, n, epilogue);
}
}  // namespace

bool gemm_avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool set_gemm_isa(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAuto:
      g_micro_kernel.store(pick_micro_kernel(), std::memory_order_relaxed);
      g_narrow_kernel.store(pick_narrow_kernel(), std::memory_order_relaxed);
      return true;
    case GemmIsa::kGeneric:
      g_micro_kernel.store(micro_kernel_generic, std::memory_order_relaxed);
      g_narrow_kernel.store(micro_kernel_narrow_generic, std::memory_order_relaxed);
      return true;
    case GemmIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (gemm_avx2_supported()) {
        g_micro_kernel.store(micro_kernel_avx2, std::memory_order_relaxed);
        g_narrow_kernel.store(micro_kernel_narrow_avx2, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
  }
  return false;
}

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  gemm_strided(a.data(), k, 1, fp32_b(b.data(), n, 1), nullptr, c.data(), m, k, n, false);
}

void gemm_fused(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
                std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n,
                const Epilogue& epilogue) {
  check_sizes(a, b, c, m, k, n, false, false);
  check_epilogue(bias, n, epilogue);
  gemm_strided(a.data(), k, 1, fp32_b(b.data(), n, 1), bias.empty() ? nullptr : bias.data(),
               c.data(), m, k, n, false, &epilogue);
}

void gemm_rows(RowSource src, const void* ctx, std::span<const float> b,
               std::span<const float> bias, std::span<float> c, std::int64_t m, std::int64_t k,
               std::int64_t n, const Epilogue& epilogue) {
  check_rows(src, b.size(), bias, c, m, k, n, epilogue);
  gemm_tiled(src, ctx, fp32_b(b.data(), n, 1), bias.empty() ? nullptr : bias.data(), c.data(), m,
             k, n, false, &epilogue);
}

void gemm_rows(RowSource src, const void* ctx, std::span<const fp16::Half> b,
               std::span<const float> bias, std::span<float> c, std::int64_t m, std::int64_t k,
               std::int64_t n, const Epilogue& epilogue) {
  check_rows(src, b.size(), bias, c, m, k, n, epilogue);
  gemm_tiled(src, ctx, BOperand{.f16 = b.data(), .rs = n}, bias.empty() ? nullptr : bias.data(),
             c.data(), m, k, n, false, &epilogue);
}

void gemm_at_b(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, true, false);
  // A is [k x m] row-major; logical A^T element (i, p) lives at a[p * m + i].
  gemm_strided(a.data(), 1, m, fp32_b(b.data(), n, 1), nullptr, c.data(), m, k, n, false);
}

void gemm_at_b_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, true, false);
  gemm_strided(a.data(), 1, m, fp32_b(b.data(), n, 1), nullptr, c.data(), m, k, n, true);
}

void gemm_a_bt(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, true);
  // B is [n x k] row-major; logical B^T element (p, j) lives at b[j * k + p].
  gemm_strided(a.data(), k, 1, fp32_b(b.data(), 1, k), nullptr, c.data(), m, k, n, false);
}

void gemm_zero_skip(std::span<const float> a, std::span<const float> b, std::span<float> c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  std::fill(c.begin(), c.begin() + static_cast<std::size_t>(m * n), 0.0F);
  constexpr std::int64_t kBlock = 64;  // fits comfortably in L1 for the j stripe
  for (std::int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::int64_t j1 = std::min(j0 + kBlock, n);
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c.data() + i * n;
      const float* arow = a.data() + i * k;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;  // identity-probe inputs in Algorithm 1 are mostly zero
        const float* brow = b.data() + p * n;
        for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace sesr::nn
