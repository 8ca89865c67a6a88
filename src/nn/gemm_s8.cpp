// Pack-free u8 x s8 conv micro-kernels for the int8 serving path. See
// gemm_s8.hpp for the in-place A layout, the two packed-B layouts and the
// exactness contract. Each build computes one output row at a time: the row
// splits into tiles of consecutive pixels (the widest tile the build keeps in
// registers, then halving power-of-two tiles for the remainder, so no pixel
// is computed twice), and a tile reads its A dot groups straight out of the
// padded image at pixel stride in_c.
//
// Accumulator wraparound: the raw offset-binary accumulator (sum of u8*s8
// plus the 128*colsum compensation term) may not fit int32 for extreme k even
// when the true s8*s8 product does. All accumulation therefore runs modulo
// 2^32 — uint32 in the scalar kernel, hardware-wrapping SIMD adds in the
// vector kernels — and the final int32 result is exact two's-complement
// whenever the true product fits, which the int64 reference in src/check
// validates (it throws on genuine int32 overflow instead of comparing).
#include "nn/gemm_s8.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

// The VEX-encoded AVX-VNNI intrinsics (_mm256_dpbusd_avx_epi32) need gcc 11+
// or clang 14+; older compilers fall back to the AVX2 madd kernel.
#if (defined(__x86_64__) || defined(__i386__)) &&                                        \
    ((defined(__clang_major__) && __clang_major__ >= 14) ||                              \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define SESR_INT8_VNNI 1
#else
#define SESR_INT8_VNNI 0
#endif

// _mm512_dpbusd_epi32 and the avx512vnni cpu-supports string: gcc 9+ or
// clang 9+.
#if (defined(__x86_64__) || defined(__i386__)) &&                                        \
    ((defined(__clang_major__) && __clang_major__ >= 9) ||                               \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 9))
#define SESR_INT8_AVX512VNNI 1
#else
#define SESR_INT8_AVX512VNNI 0
#endif

// The AMX build: 64-bit Linux (the tile data state needs an arch_prctl
// permission) and an assembler that knows the tile mnemonics (binutils 2.36,
// paired with gcc 11+, or clang 12+'s integrated assembler).
#if SESR_INT8_AVX512VNNI && defined(__x86_64__) && defined(__linux__) &&                 \
    ((defined(__clang_major__) && __clang_major__ >= 12) ||                              \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define SESR_INT8_AMX 1
#include <sys/syscall.h>
#include <unistd.h>

#include <utility>
#else
#define SESR_INT8_AMX 0
#endif

namespace sesr::nn {

namespace {

constexpr std::int64_t kTile = 16;  // widest pixel tile of any build

// One output row: what a build's row function reads and writes.
struct S8Row {
  const std::uint8_t* a = nullptr;  // k-run 0 of output pixel 0
  std::int64_t ps = 0;              // pixel stride
  std::int64_t rs = 0;              // stride between k-runs (image row stride)
  std::int64_t width = 0;           // output pixels
  const S8PackedWeights* w = nullptr;
  const std::int32_t* colsum = nullptr;
  const S8Epilogue* epi = nullptr;  // null: raw int32 accumulators into ci32
  // Pixel x, channel j of the row at [x * n + j] of exactly one of c (fp32),
  // q (u8, when the epilogue requantizes) and ci32; of res when set.
  float* c = nullptr;
  std::uint8_t* q = nullptr;
  std::int32_t* ci32 = nullptr;
  const float* res = nullptr;  // the epilogue's residual
  std::int64_t qrs = 0;        // q's row stride
  float qinv = 0.0F;           // q's quantizer: quantize_value(v, qinv) + 128
};

using S8RowFn = void (*)(const S8Row& row);

// A build's entry point: output rows [row0, row1), with the pointers of r
// at row 0.
using S8RowsFn = void (*)(const S8Row& r, std::int64_t row0, std::int64_t row1);

// A build's bulk quantizer (quantize_u8_run).
using QuantizeFn = void (*)(const float* src, std::uint8_t* dst, std::int64_t n, float inv);

struct S8Kernel {
  const char* name;
  S8RowsFn rows;
  QuantizeFn quantize;
};

// r moved from row 0 to output row `row`.
S8Row at_row(const S8Row& r, std::int64_t row) {
  const std::int64_t row_out = r.width * r.w->n;
  const auto advance = [&](auto* p, std::int64_t stride) {
    return p != nullptr ? p + row * stride : p;
  };
  S8Row out = r;
  out.a = r.a + row * r.rs;
  out.c = advance(r.c, row_out);
  out.q = advance(r.q, r.qrs);
  out.ci32 = advance(r.ci32, row_out);
  out.res = advance(r.res, row_out);
  return out;
}

template <S8RowFn Row>
void each_row(const S8Row& r, std::int64_t row0, std::int64_t row1) {
  for (std::int64_t row = row0; row < row1; ++row) Row(at_row(r, row));
}

inline std::int32_t load_le_i32(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Byte offset of dot group g, channel j in the packed B layout.
inline std::int64_t b_offset(const S8PackedWeights& w, std::int64_t g, std::int64_t j) {
  return w.narrow ? (g / 4) * 64 + j * 16 + (g % 4) * 4 : (g * w.cols + j) * 4;
}

// Offset removal + dequant + bias + activation for mr pixels x channels
// [j0, j0 + nr) from pixel x0 on, reading wrapped accumulators acc[i * lda +
// j]. The uint32 -> int32 conversion is modular (C++20), so the result is the
// exact s8 x s8 accumulator whenever that fits int32. The fmaf keeps the
// dequant store single-rounded in every kernel build AND in the src/check
// reference regardless of -ffp-contract, so bit-equality between them is a
// property of the expression, not of compiler flags.
void store_scalar(const std::uint32_t* acc, std::int64_t lda, std::int64_t x0, std::int64_t mr,
                  std::int64_t j0, std::int64_t nr, const S8Row& r) {
  const std::int64_t n = r.w->n;
  const std::int32_t* colsum = r.colsum + j0;
  for (std::int64_t i = 0; i < mr; ++i) {
    const std::uint32_t* ai = acc + i * lda;
    if (r.epi == nullptr) {
      std::int32_t* out = r.ci32 + (x0 + i) * n + j0;
      for (std::int64_t j = 0; j < nr; ++j) {
        out[j] = static_cast<std::int32_t>(ai[j] - static_cast<std::uint32_t>(colsum[j]) * 128U);
      }
      continue;
    }
    const S8Epilogue& e = *r.epi;
    const std::int64_t at = (x0 + i) * n + j0;
    for (std::int64_t j = 0; j < nr; ++j) {
      const std::int32_t v =
          static_cast<std::int32_t>(ai[j] - static_cast<std::uint32_t>(colsum[j]) * 128U);
      float f = std::fmaf(static_cast<float>(v), e.scale[j0 + j],
                          e.bias != nullptr ? e.bias[j0 + j] : 0.0F);
      if (e.act == Epilogue::Act::kRelu) {
        f = f > 0.0F ? f : 0.0F;
      } else if (e.act == Epilogue::Act::kPRelu) {
        f = f > 0.0F ? f : e.prelu_alpha[j0 + j] * f;
      }
      if (r.res != nullptr) f += r.res[at + j];
      if (r.q != nullptr) {
        r.q[at + j] = static_cast<std::uint8_t>(
            static_cast<std::int32_t>(quantize_value(f, r.qinv)) + 128);
      } else {
        r.c[at + j] = f;
      }
    }
  }
}

void quantize_u8_scalar(const float* src, std::uint8_t* dst, std::int64_t n, float inv) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(static_cast<std::int32_t>(quantize_value(src[i], inv)) +
                                       128);
  }
}

// Portable scalar build: tiles of up to 16 pixels x 16 channels.
void row_generic(const S8Row& r) {
  const S8PackedWeights& w = *r.w;
  const std::int64_t gr = w.run / 4;  // dot groups per k-run
  for (std::int64_t j0 = 0; j0 < w.n; j0 += 16) {
    const std::int64_t nr = std::min<std::int64_t>(16, w.n - j0);
    for (std::int64_t x0 = 0; x0 < r.width; x0 += kTile) {
      const std::int64_t mr = std::min(kTile, r.width - x0);
      std::uint32_t acc[kTile][16] = {};
      for (std::int64_t ky = 0; ky < w.kh; ++ky) {
        for (std::int64_t gg = 0; gg < gr; ++gg) {
          const std::int64_t g = ky * gr + gg;
          for (std::int64_t i = 0; i < mr; ++i) {
            const std::uint8_t* a = r.a + ky * r.rs + (x0 + i) * r.ps + gg * 4;
            for (std::int64_t j = 0; j < nr; ++j) {
              const std::uint8_t* b = w.data.data() + b_offset(w, g, j0 + j);
              std::int32_t s = 0;
              for (int t = 0; t < 4; ++t) {
                s += static_cast<std::int32_t>(a[t]) *
                     static_cast<std::int32_t>(static_cast<std::int8_t>(b[t]));
              }
              acc[i][j] += static_cast<std::uint32_t>(s);
            }
          }
        }
      }
      store_scalar(&acc[0][0], 16, x0, mr, j0, nr, r);
    }
  }
}

// Runs tile.template operator()<M>(x0, j0) over pixels [x0, width): whole MR
// tiles, then the remainder in halving power-of-two tiles.
template <int MR, typename Tile>
void pixel_tiles(const Tile& tile, std::int64_t x0, std::int64_t width, std::int64_t j0) {
  for (; width - x0 >= MR; x0 += MR) tile.template operator()<MR>(x0, j0);
  if constexpr (MR > 1) pixel_tiles<MR / 2>(tile, x0, width, j0);
}

// One output row as 16-channel blocks (a single block when narrow, n <= 4)
// of pixel tiles up to MaxMr wide, so no pixel is computed twice.
template <int MaxMr, typename Tile>
void row_tiles(const S8Row& r, const Tile& tile) {
  for (std::int64_t j0 = 0; j0 < r.w->n; j0 += 16) pixel_tiles<MaxMr>(tile, 0, r.width, j0);
}

#if defined(__x86_64__) || defined(__i386__)

constexpr int kTileAvx2 = 4;  // pixels per AVX2 / AVX-VNNI tile (x 16 channels)

// quantize_value(v, inv) + 128 on 8 lanes, as int32. Exactness is an
// expression-level mirror of the scalar form: NaN lanes become +0 first (an
// ordered self-compare mask), then clamp to [-127, 127], add copysign(0.5, r)
// (equal to the r >= 0 ternary for every non-NaN input including -0.0, where
// both sides round to 0), then truncate — cvttps is the C cast. The result
// is in [1, 255].
__attribute__((target("avx2"))) inline __m256i quantize8_avx2(__m256 v, __m256 inv) {
  __m256 r = _mm256_mul_ps(v, inv);
  r = _mm256_and_ps(r, _mm256_cmp_ps(r, r, _CMP_ORD_Q));
  r = _mm256_max_ps(_mm256_min_ps(r, _mm256_set1_ps(127.0F)), _mm256_set1_ps(-127.0F));
  const __m256 half =
      _mm256_or_ps(_mm256_and_ps(r, _mm256_set1_ps(-0.0F)), _mm256_set1_ps(0.5F));
  return _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r, half)), _mm256_set1_epi32(128));
}

// Bulk form of quantize8_avx2, 32 floats per step: the signed i32->i16 and
// unsigned i16->u8 packs never saturate, and the final 32-bit permute undoes
// their 128-bit lane interleave.
__attribute__((target("avx2"))) void quantize_u8_avx2(const float* src, std::uint8_t* dst,
                                                      std::int64_t n, float inv) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int t = 0; t < 4; ++t) q[t] = quantize8_avx2(_mm256_loadu_ps(src + i + t * 8), vinv);
    const __m256i p01 = _mm256_packs_epi32(q[0], q[1]);
    const __m256i p23 = _mm256_packs_epi32(q[2], q[3]);
    const __m256i packed = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p01, p23), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  quantize_u8_scalar(src + i, dst + i, n - i, inv);
}

// Write-back of an AVX2-family wide tile (acc[i][h] = pixel i, channels
// j0 + 8h .. j0 + 8h + 7). Full 8-channel halves on the float path store
// from registers; each lane computes exactly the scalar expression:
// vcvtdq2ps matches the scalar int->float cast (round-to-nearest), vfmadd
// matches the single-rounded fmaf, and-with-compare-mask matches
// `f > 0 ? f : 0` (false lanes become +0.0f, same as the scalar 0.0F arm,
// including for f = -0.0 and NaN), blendv matches the PReLU ternary, the
// residual is the same single add, and a requantized half packs its 8 bytes
// (quantize8_avx2 values never saturate the packs). Partial halves and the
// i32 audit path go through the scalar store.
template <int MR>
__attribute__((target("avx2,fma"))) void store_wide_avx2(const __m256i (&acc)[MR][2],
                                                         const S8Row& r, std::int64_t x0,
                                                         std::int64_t j0) {
  const std::int64_t n = r.w->n;
  for (int h = 0; h < 2; ++h) {
    const std::int64_t jh = j0 + 8 * h;
    const std::int64_t nr = std::min<std::int64_t>(8, n - jh);
    if (nr <= 0) return;
    if (nr < 8 || r.epi == nullptr) {
      alignas(32) std::uint32_t buf[MR][8];
      for (int i = 0; i < MR; ++i) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf[i]), acc[i][h]);
      }
      store_scalar(&buf[0][0], 8, x0, MR, jh, nr, r);
      continue;
    }
    const S8Epilogue& e = *r.epi;
    const __m256i comp = _mm256_mullo_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r.colsum + jh)),
        _mm256_set1_epi32(128));
    const __m256 scale = _mm256_loadu_ps(e.scale + jh);
    const __m256 bias = e.bias != nullptr ? _mm256_loadu_ps(e.bias + jh) : _mm256_setzero_ps();
    const __m256 zero = _mm256_setzero_ps();
    const __m256 qinv = _mm256_set1_ps(r.qinv);
    for (int i = 0; i < MR; ++i) {
      const __m256 v = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[i][h], comp));
      __m256 f = _mm256_fmadd_ps(v, scale, bias);
      if (e.act == Epilogue::Act::kRelu) {
        f = _mm256_and_ps(f, _mm256_cmp_ps(f, zero, _CMP_GT_OQ));
      } else if (e.act == Epilogue::Act::kPRelu) {
        const __m256 neg = _mm256_mul_ps(_mm256_loadu_ps(e.prelu_alpha + jh), f);
        f = _mm256_blendv_ps(neg, f, _mm256_cmp_ps(f, zero, _CMP_GT_OQ));
      }
      const std::int64_t at = (x0 + i) * n + jh;
      if (r.res != nullptr) f = _mm256_add_ps(f, _mm256_loadu_ps(r.res + at));
      if (r.q == nullptr) {
        _mm256_storeu_ps(r.c + at, f);
        continue;
      }
      const __m256i q = quantize8_avx2(f, qinv);
      const __m128i q16 =
          _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(r.q + at), _mm_packus_epi16(q16, q16));
    }
  }
}

// Write-back of an AVX2-family narrow tile: acc[i][0] holds channels 0-1 and
// acc[i][1] channels 2-3 of pixel i, four k-group lanes per channel. Two
// wrapping hadds sum each channel's lanes; the scalar store finishes.
template <int MR>
__attribute__((target("avx2,fma"))) void store_narrow_avx2(const __m256i (&acc)[MR][2],
                                                           const S8Row& r, std::int64_t x0) {
  std::uint32_t buf[MR][4];
  for (int i = 0; i < MR; ++i) {
    __m256i h = _mm256_hadd_epi32(acc[i][0], acc[i][1]);  // c0 c0 c2 c2 | c1 c1 c3 c3
    h = _mm256_hadd_epi32(h, h);                          // c0 c2 c0 c2 | c1 c3 c1 c3
    alignas(32) std::uint32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), h);
    buf[i][0] = t[0];
    buf[i][1] = t[4];
    buf[i][2] = t[1];
    buf[i][3] = t[5];
  }
  store_scalar(&buf[0][0], 4, x0, MR, 0, r.w->n, r);
}

// AVX2 builds. maddubs_epi16's intermediate s16 pair-sum saturates at
// 255*127*2 > 32767, so exactness forces the widening route instead: each B
// vector is split into even/odd k-positions as sign-extended s16 lanes
// (shift tricks, no extra tables), and each broadcast A dword (a0 a1 a2 a3)
// splits the same way in-register — mask the odd bytes for the (a0, a2) u16
// lanes, shift right 8 for (a1, a3). madd_epi16 then gives the exact int32
// pair-dot: u8 operands are 0..255 as s16, products <= 255*127 per lane,
// pair sums fit int32.
struct SplitB {
  __m256i even;
  __m256i odd;
};

__attribute__((target("avx2,fma"))) inline SplitB split_b(const std::uint8_t* p) {
  const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return {_mm256_srai_epi16(_mm256_slli_epi16(raw, 8), 8), _mm256_srai_epi16(raw, 8)};
}

__attribute__((target("avx2,fma"))) inline __m256i madd_dot(__m256i acc, __m256i ae, __m256i ao,
                                                            const SplitB& b) {
  return _mm256_add_epi32(
      acc, _mm256_add_epi32(_mm256_madd_epi16(ae, b.even), _mm256_madd_epi16(ao, b.odd)));
}

// The A operand of one pixel: a wide tile broadcasts one 4-byte dot group to
// every lane, a narrow tile one 16-byte block (4 dot groups) to both halves,
// matching the narrow B layout's lane order (channel-major, 4 groups each).
template <bool kNarrow>
__attribute__((target("avx2,fma"))) inline __m256i a_operand_avx2(const std::uint8_t* p) {
  if constexpr (kNarrow) {
    return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_set1_epi32(load_le_i32(p));
  }
}

// A wide tile (MR pixels x channels j0..j0+15) steps through one dot group
// and one B row at a time; a narrow tile (MR pixels x 4 channels, j0 = 0)
// through one 16-byte A block and 64 bytes of B.
struct TileSteps {
  std::int64_t count;  // per k-run
  std::int64_t a;      // bytes
  std::int64_t b;      // bytes
};

template <bool kNarrow>
inline TileSteps tile_steps(const S8PackedWeights& w) {
  return kNarrow ? TileSteps{w.run / 16, 16, 64} : TileSteps{w.run / 4, 4, w.cols * 4};
}

template <int MR, bool kNarrow>
__attribute__((target("avx2,fma"))) void tile_avx2(const S8Row& r, std::int64_t x0,
                                                   std::int64_t j0) {
  const S8PackedWeights& w = *r.w;
  const TileSteps st = tile_steps<kNarrow>(w);
  const __m256i lo_mask = _mm256_set1_epi16(0x00FF);
  __m256i acc[MR][2];
  for (int i = 0; i < MR; ++i) acc[i][0] = acc[i][1] = _mm256_setzero_si256();
  const std::uint8_t* b = w.data.data() + j0 * 4;
  for (std::int64_t ky = 0; ky < w.kh; ++ky) {
    const std::uint8_t* a = r.a + ky * r.rs + x0 * r.ps;
    for (std::int64_t s = 0; s < st.count; ++s, a += st.a, b += st.b) {
      const SplitB b0 = split_b(b);
      const SplitB b1 = split_b(b + 32);
      for (int i = 0; i < MR; ++i) {
        const __m256i araw = a_operand_avx2<kNarrow>(a + i * r.ps);
        const __m256i ae = _mm256_and_si256(araw, lo_mask);
        const __m256i ao = _mm256_srli_epi16(araw, 8);
        acc[i][0] = madd_dot(acc[i][0], ae, ao, b0);
        acc[i][1] = madd_dot(acc[i][1], ae, ao, b1);
      }
    }
  }
  if constexpr (kNarrow) {
    store_narrow_avx2<MR>(acc, r, x0);
  } else {
    store_wide_avx2<MR>(acc, r, x0, j0);
  }
}

void row_avx2(const S8Row& r) {
  row_tiles<kTileAvx2>(r, [&]<int M>(std::int64_t x0, std::int64_t j0) {
    if (r.w->narrow) {
      tile_avx2<M, true>(r, x0, j0);
    } else {
      tile_avx2<M, false>(r, x0, j0);
    }
  });
}

#if SESR_INT8_VNNI
// AVX-VNNI build: one dpbusd per (pixel, dot group, 8 channels) replaces the
// split + 2x madd + 2x add sequence. VPDPBUSD wraps (no saturation; that is
// the VPDPBUSDS variant), so it is exact under the same modular contract.
template <int MR, bool kNarrow>
__attribute__((target("avx2,fma,avxvnni"))) void tile_vnni(const S8Row& r, std::int64_t x0,
                                                           std::int64_t j0) {
  const S8PackedWeights& w = *r.w;
  const TileSteps st = tile_steps<kNarrow>(w);
  __m256i acc[MR][2];
  for (int i = 0; i < MR; ++i) acc[i][0] = acc[i][1] = _mm256_setzero_si256();
  const std::uint8_t* b = w.data.data() + j0 * 4;
  for (std::int64_t ky = 0; ky < w.kh; ++ky) {
    const std::uint8_t* a = r.a + ky * r.rs + x0 * r.ps;
    for (std::int64_t s = 0; s < st.count; ++s, a += st.a, b += st.b) {
      const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
      const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 32));
      for (int i = 0; i < MR; ++i) {
        const __m256i av = a_operand_avx2<kNarrow>(a + i * r.ps);
        acc[i][0] = _mm256_dpbusd_avx_epi32(acc[i][0], av, b0);
        acc[i][1] = _mm256_dpbusd_avx_epi32(acc[i][1], av, b1);
      }
    }
  }
  if constexpr (kNarrow) {
    store_narrow_avx2<MR>(acc, r, x0);
  } else {
    store_wide_avx2<MR>(acc, r, x0, j0);
  }
}

void row_vnni(const S8Row& r) {
  row_tiles<kTileAvx2>(r, [&]<int M>(std::int64_t x0, std::int64_t j0) {
    if (r.w->narrow) {
      tile_vnni<M, true>(r, x0, j0);
    } else {
      tile_vnni<M, false>(r, x0, j0);
    }
  });
}
#endif  // SESR_INT8_VNNI

#if SESR_INT8_AVX512VNNI
// gcc 12's avx512fintrin.h builds pass-through operands from a
// self-initialized _mm512_undefined_* value, which trips -Wuninitialized at
// every instantiation; the operands are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#define SESR_AVX512_TARGET __attribute__((target("avx512f,avx512bw,avx512vnni,fma")))

// The per-channel operands of the AVX-512 write-back for 16 lanes, and the
// row's outputs (copied out of the S8Row: a local the stores cannot alias,
// so the per-pixel loop keeps them in registers).
struct Store16 {
  __m512i comp;  // 128 * colsum
  __m512 scale;
  __m512 bias;
  __m512 alpha;
  __m512 qinv;  // the u8 output's quantizer
  const S8Epilogue* epi;
  Epilogue::Act act;
  float* c;
  std::uint8_t* q;
  std::int32_t* ci32;
  const float* res;
};

SESR_AVX512_TARGET inline Store16 zero_store16(const S8Row& r) {
  return {_mm512_setzero_si512(),
          _mm512_setzero_ps(),
          _mm512_setzero_ps(),
          _mm512_setzero_ps(),
          _mm512_set1_ps(r.qinv),
          r.epi,
          r.epi != nullptr ? r.epi->act : Epilogue::Act::kNone,
          r.c,
          r.q,
          r.ci32,
          r.res};
}

// quantize_value(v, inv) + 128 on 16 lanes, as int32 whose low byte is the
// result: the caller stores it with vpmovdb, which keeps the low byte. Same
// rounding as quantize8_avx2 (the copysign is one ternary-logic op), but a
// NaN needs no mask: the clamps put their constant first, so vminps/vmaxps
// pass a NaN through (they return the second operand when either is NaN),
// cvttps turns it into 0x80000000, and + 128 gives low byte 0x80 — the zero
// point, as in the scalar NaN arm. Every other lane is in [1, 255].
SESR_AVX512_TARGET inline __m512i quantize16_avx512(__m512 v, __m512 inv) {
  __m512 r = _mm512_mul_ps(v, inv);
  r = _mm512_max_ps(_mm512_set1_ps(-127.0F), _mm512_min_ps(_mm512_set1_ps(127.0F), r));
  // (r & sign) | 0.5: copysign(0.5, r).
  const __m512 half = _mm512_castsi512_ps(_mm512_ternarylogic_epi32(
      _mm512_castps_si512(r), _mm512_set1_epi32(INT32_MIN),
      _mm512_castps_si512(_mm512_set1_ps(0.5F)), 0xEA));
  const __m512i q = _mm512_cvttps_epi32(_mm512_add_ps(r, half));
  return _mm512_add_epi32(q, _mm512_set1_epi32(128));
}

// Bulk form of quantize16_avx512; the tail is one masked step.
SESR_AVX512_TARGET void quantize_u8_avx512(const float* src, std::uint8_t* dst, std::int64_t n,
                                           float inv) {
  const __m512 vinv = _mm512_set1_ps(inv);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm512_cvtepi32_epi8(quantize16_avx512(_mm512_loadu_ps(src + i), vinv)));
  }
  if (i < n) {
    const auto mask = static_cast<__mmask16>((1U << (n - i)) - 1U);
    _mm512_mask_cvtepi32_storeu_epi8(
        dst + i, mask, quantize16_avx512(_mm512_maskz_loadu_ps(mask, src + i), vinv));
  }
}

// Epilogue on 16 lanes of int32 accumulators, lane-for-lane the scalar
// expression (see store_wide_avx2; the mask compare-and-zero matches the
// ReLU arm, the multiply masked to the lanes not > 0 the PReLU ternary).
// `mask` selects the lanes stored.
SESR_AVX512_TARGET inline void store16_avx512(__m512i acc, const Store16& s, __mmask16 mask,
                                              std::int64_t offset) {
  const __m512i v = _mm512_sub_epi32(acc, s.comp);
  if (s.epi == nullptr) {
    _mm512_mask_storeu_epi32(s.ci32 + offset, mask, v);
    return;
  }
  __m512 f = _mm512_fmadd_ps(_mm512_cvtepi32_ps(v), s.scale, s.bias);
  if (s.act == Epilogue::Act::kRelu) {
    f = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(f, _mm512_setzero_ps(), _CMP_GT_OQ), f);
  } else if (s.act == Epilogue::Act::kPRelu) {
    f = _mm512_mask_mul_ps(f, _mm512_cmp_ps_mask(f, _mm512_setzero_ps(), _CMP_NGT_UQ), s.alpha,
                           f);
  }
  if (s.res != nullptr) f = _mm512_add_ps(f, _mm512_maskz_loadu_ps(mask, s.res + offset));
  if (s.q != nullptr) {
    _mm512_mask_cvtepi32_storeu_epi8(s.q + offset, mask, quantize16_avx512(f, s.qinv));
  } else {
    _mm512_mask_storeu_ps(s.c + offset, mask, f);
  }
}

// Lane mask of the channels [j0, j0 + 16) that exist.
inline __mmask16 wide_mask(const S8Row& r, std::int64_t j0) {
  return static_cast<__mmask16>((1U << std::min<std::int64_t>(16, r.w->n - j0)) - 1U);
}

// Write-back operands of channels j0..j0+15 of a wide tile.
SESR_AVX512_TARGET inline Store16 wide_store16(const S8Row& r, std::int64_t j0) {
  const __mmask16 mask = wide_mask(r, j0);
  Store16 s = zero_store16(r);
  s.comp = _mm512_mullo_epi32(_mm512_maskz_loadu_epi32(mask, r.colsum + j0),
                              _mm512_set1_epi32(128));
  if (r.epi != nullptr) {
    s.scale = _mm512_maskz_loadu_ps(mask, r.epi->scale + j0);
    if (r.epi->bias != nullptr) s.bias = _mm512_maskz_loadu_ps(mask, r.epi->bias + j0);
    if (r.epi->act == Epilogue::Act::kPRelu) {
      s.alpha = _mm512_maskz_loadu_ps(mask, r.epi->prelu_alpha + j0);
    }
  }
  return s;
}

// AVX-512 VNNI wide store: acc[i] holds channels j0..j0+15 of pixel i.
template <int MR>
SESR_AVX512_TARGET void store_wide_avx512(const __m512i* acc, const S8Row& r, std::int64_t x0,
                                          std::int64_t j0) {
  const std::int64_t n = r.w->n;
  const __mmask16 mask = wide_mask(r, j0);
  const Store16 s = wide_store16(r, j0);
  for (int i = 0; i < MR; ++i) store16_avx512(acc[i], s, mask, (x0 + i) * n + j0);
}

// AVX-512 VNNI narrow store (n <= 4): acc[i] holds 4 channels x 4 k-group
// partial sums of pixel i. Each channel's four lanes are summed for four
// pixels at a time (an unpack/add transpose within each 128-bit lane, then
// one permute to pixel-major order), so a 4-channel output stores 4 pixels
// per vector. acc has room for MR rounded up to 4 pixels; the extra ones are
// zero.
template <int MR>
SESR_AVX512_TARGET void store_narrow_avx512(const __m512i* acc, const S8Row& r,
                                            std::int64_t x0) {
  const std::int64_t n = r.w->n;
  const bool full = n == 4;
  Store16 s = zero_store16(r);
  if (full) {
    s.comp = _mm512_mullo_epi32(
        _mm512_broadcast_i32x4(_mm_loadu_si128(reinterpret_cast<const __m128i*>(r.colsum))),
        _mm512_set1_epi32(128));
    if (r.epi != nullptr) {
      s.scale = _mm512_broadcast_f32x4(_mm_loadu_ps(r.epi->scale));
      if (r.epi->bias != nullptr) s.bias = _mm512_broadcast_f32x4(_mm_loadu_ps(r.epi->bias));
      if (r.epi->act == Epilogue::Act::kPRelu) {
        s.alpha = _mm512_broadcast_f32x4(_mm_loadu_ps(r.epi->prelu_alpha));
      }
    }
  }
  const __m512i to_pixel_major =
      _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  for (int q = 0; q < MR; q += 4) {
    // Within 128-bit lane c: acc[q + p] = [g0 g1 g2 g3] of channel c.
    const __m512i s01 = _mm512_add_epi32(_mm512_unpacklo_epi32(acc[q], acc[q + 1]),
                                         _mm512_unpackhi_epi32(acc[q], acc[q + 1]));
    const __m512i s23 = _mm512_add_epi32(_mm512_unpacklo_epi32(acc[q + 2], acc[q + 3]),
                                         _mm512_unpackhi_epi32(acc[q + 2], acc[q + 3]));
    const __m512i sums = _mm512_add_epi32(_mm512_unpacklo_epi64(s01, s23),
                                          _mm512_unpackhi_epi64(s01, s23));  // lane 4c + p
    const __m512i px = _mm512_permutexvar_epi32(to_pixel_major, sums);      // lane 4p + c
    const int count = MR - q < 4 ? MR - q : 4;
    if (full) {
      const auto mask = static_cast<__mmask16>((1U << (4 * count)) - 1U);
      store16_avx512(px, s, mask, (x0 + q) * 4);
    } else {
      alignas(64) std::uint32_t buf[16];
      _mm512_store_si512(buf, px);
      store_scalar(buf, 4, x0 + q, count, 0, n, r);
    }
  }
}

// AVX-512 VNNI tile, one zmm accumulator per pixel. Wide: per dot group one
// 64-byte B load (16 channels) feeds MR dpbusd whose A operand is a 4-byte
// embedded broadcast straight from the padded image. Narrow: per 16-byte A
// block one 64-byte B load (4 channels x 4 groups) feeds MR dpbusd whose A
// operand is the block broadcast to all four 128-bit lanes.
template <int MR, bool kNarrow>
SESR_AVX512_TARGET void tile_avx512(const S8Row& r, std::int64_t x0, std::int64_t j0) {
  const S8PackedWeights& w = *r.w;
  const TileSteps st = tile_steps<kNarrow>(w);
  __m512i acc[(MR + 3) / 4 * 4];
  for (__m512i& v : acc) v = _mm512_setzero_si512();
  const std::uint8_t* b = w.data.data() + j0 * 4;
  for (std::int64_t ky = 0; ky < w.kh; ++ky) {
    const std::uint8_t* a = r.a + ky * r.rs + x0 * r.ps;
    for (std::int64_t s = 0; s < st.count; ++s, a += st.a, b += st.b) {
      const __m512i bv = _mm512_loadu_si512(b);
      for (int i = 0; i < MR; ++i) {
        const std::uint8_t* ai = a + i * r.ps;
        const __m512i av = kNarrow ? _mm512_broadcast_i32x4(_mm_loadu_si128(
                                         reinterpret_cast<const __m128i*>(ai)))
                                   : _mm512_set1_epi32(load_le_i32(ai));
        acc[i] = _mm512_dpbusd_epi32(acc[i], av, bv);
      }
    }
  }
  if constexpr (kNarrow) {
    store_narrow_avx512<MR>(acc, r, x0);
  } else {
    store_wide_avx512<MR>(acc, r, x0, j0);
  }
}

void row_avx512(const S8Row& r) {
  row_tiles<kTile>(r, [&]<int M>(std::int64_t x0, std::int64_t j0) {
    if (r.w->narrow) {
      tile_avx512<M, true>(r, x0, j0);
    } else {
      tile_avx512<M, false>(r, x0, j0);
    }
  });
}

#if SESR_INT8_AMX
// AMX build for the wide layout (narrow weights run the AVX-512 VNNI tiles).
// tdpbusd multiplies a u8 A tile (rows = pixels, K bytes each) by an s8 B
// tile (K/4 rows of 16 channels x 4 bytes) into an int32 C tile (pixels x 16
// channels), wrapping like vpdpbusd. An A tile is 16 consecutive pixels of
// one output row read in place at stride in_c (overlapping rows are legal);
// a B tile is consecutive rows of the wide packing at stride cols * 4, which
// is already the layout tdpbusd wants. Tile registers:
//   tmm0-3  C: 16 pixels x 16 channels each, so one step covers 64 pixels
//   tmm4/5  A / B of a K chunk of min(run, 64) bytes
//   tmm6/7  A / B of the run's shorter last chunk, when run > 64 and run is
//           not a multiple of 64 (the x4 net's 80-byte run: 64 + 16)
// A row's remainder runs as one step of ceil(rest / 16) C tiles; pixels past
// the row end are computed from the bytes that follow (s8_image_slack covers
// the last row) and never stored.
//
// The tile state is configured per rows_amx call and released at its end, so
// pool threads hold no tile state between calls. The tile instructions are
// inline asm, not gcc 12's intrinsics, which under-declare memory (see
// gemm_s8.hpp): here ldtilecfg takes the whole config as its operand and
// tileloadd clobbers memory.

// Palette-1 tile configuration (Intel SDM vol. 1, 3.2.2 "TILECFG").
struct alignas(64) AmxConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(AmxConfig) == 64);

constexpr std::int64_t kAmxChunk = 64;  // max bytes per A tile row
constexpr int kAmxSteps = 4;            // C tiles per step

// How a k-run splits into tdpbusd K chunks.
struct AmxChunks {
  std::int64_t bytes;  // per full chunk
  std::int64_t count;  // full chunks per k-run
  std::int64_t tail;   // bytes of the shorter last chunk, 0 if none
};

inline AmxChunks amx_chunks(const S8PackedWeights& w) {
  const std::int64_t bytes = std::min(w.run, kAmxChunk);
  return {bytes, w.run / bytes, w.run % bytes};
}

AmxConfig amx_config(const S8PackedWeights& w) {
  const AmxChunks ch = amx_chunks(w);
  AmxConfig cfg;
  for (int t = 0; t < kAmxSteps; ++t) {
    cfg.rows[t] = 16;
    cfg.colsb[t] = 64;
  }
  const auto set_ab = [&](int a, std::int64_t bytes) {
    cfg.rows[a] = 16;
    cfg.colsb[a] = static_cast<std::uint16_t>(bytes);
    cfg.rows[a + 1] = static_cast<std::uint8_t>(bytes / 4);
    cfg.colsb[a + 1] = 64;
  };
  set_ab(4, ch.bytes);
  if (ch.tail > 0) set_ab(6, ch.tail);
  return cfg;
}

inline void tile_config(const AmxConfig& cfg) { asm volatile("ldtilecfg %0" ::"m"(cfg)); }
inline void tile_release() { asm volatile("tilerelease" ::); }

template <int T>
inline void tile_zero() {
  asm volatile("tilezero %%tmm%c0" ::"i"(T));
}

template <int T>
inline void tile_load(const std::uint8_t* base, std::int64_t stride) {
  asm volatile("tileloadd (%0,%1,1), %%tmm%c2" ::"r"(base), "r"(stride), "i"(T) : "memory");
}

template <int T>
inline void tile_store(std::int32_t* base, std::int64_t stride) {
  asm volatile("tilestored %%tmm%c0, (%1,%2,1)" ::"i"(T), "r"(base), "r"(stride) : "memory");
}

// C[T] += A x B (u8 x s8, int32 wrap).
template <int C, int A, int B>
inline void tile_dpbusd() {
  asm volatile("tdpbusd %%tmm%c2, %%tmm%c1, %%tmm%c0" ::"i"(C), "i"(A), "i"(B));
}

// One K chunk into C tiles 0..sizeof(Cs)-1: B once, then per C tile its 16
// pixels' A rows from `a`, 16 pixel strides apart.
template <int A, int B, int... Cs>
inline void amx_chunk(const std::uint8_t* a, std::int64_t ps, const std::uint8_t* b,
                      std::int64_t bs, std::integer_sequence<int, Cs...> /*tiles*/) {
  tile_load<B>(b, bs);
  ((tile_load<A>(a + Cs * 16 * ps, ps), tile_dpbusd<Cs, A, B>()), ...);
}

// Pixels [x0, x0 + 16 * NT) x channels [j0, j0 + 16) of one output row; only
// pixels below r.width are stored.
template <int NT>
SESR_AVX512_TARGET void step_amx(const S8Row& r, const AmxChunks& ch, std::int64_t x0,
                                 std::int64_t j0) {
  constexpr auto tiles = std::make_integer_sequence<int, NT>{};
  [&]<int... Cs>(std::integer_sequence<int, Cs...>) { (tile_zero<Cs>(), ...); }(tiles);
  const S8PackedWeights& w = *r.w;
  const std::int64_t bs = w.cols * 4;
  const std::uint8_t* b = w.data.data() + j0 * 4;
  for (std::int64_t ky = 0; ky < w.kh; ++ky) {
    const std::uint8_t* a = r.a + ky * r.rs + x0 * r.ps;
    for (std::int64_t q = 0; q < ch.count; ++q, a += ch.bytes, b += ch.bytes / 4 * bs) {
      amx_chunk<4, 5>(a, r.ps, b, bs, tiles);
    }
    if (ch.tail > 0) {
      amx_chunk<6, 7>(a, r.ps, b, bs, tiles);
      b += ch.tail / 4 * bs;
    }
  }
  alignas(64) std::int32_t acc[NT * 16][16];
  [&]<int... Cs>(std::integer_sequence<int, Cs...>) {
    (tile_store<Cs>(acc[Cs * 16], sizeof(acc[0])), ...);
  }(tiles);
  const std::int64_t n = w.n;
  const __mmask16 mask = wide_mask(r, j0);
  const Store16 s = wide_store16(r, j0);
  const std::int64_t mr = std::min<std::int64_t>(NT * 16, r.width - x0);
  for (std::int64_t i = 0; i < mr; ++i) {
    store16_avx512(_mm512_load_si512(acc[i]), s, mask, (x0 + i) * n + j0);
  }
}

void row_amx(const S8Row& r) {
  const AmxChunks ch = amx_chunks(*r.w);
  for (std::int64_t j0 = 0; j0 < r.w->n; j0 += 16) {
    for (std::int64_t x0 = 0; x0 < r.width; x0 += kAmxSteps * 16) {
      switch (std::min<std::int64_t>(kAmxSteps, (r.width - x0 + 15) / 16)) {
        case 1:
          step_amx<1>(r, ch, x0, j0);
          break;
        case 2:
          step_amx<2>(r, ch, x0, j0);
          break;
        case 3:
          step_amx<3>(r, ch, x0, j0);
          break;
        default:
          step_amx<kAmxSteps>(r, ch, x0, j0);
          break;
      }
    }
  }
}

void rows_amx(const S8Row& r, std::int64_t row0, std::int64_t row1) {
  if (r.w->narrow || r.w->run == 0) {
    each_row<row_avx512>(r, row0, row1);
    return;
  }
  tile_config(amx_config(*r.w));
  each_row<row_amx>(r, row0, row1);
  tile_release();
}
#endif  // SESR_INT8_AMX
#undef SESR_AVX512_TARGET
#pragma GCC diagnostic pop
#endif  // SESR_INT8_AVX512VNNI

// AVX-VNNI (VEX) is CPUID.(EAX=7, ECX=1):EAX[4]. Raw cpuid instead of
// __builtin_cpu_supports("avxvnni") because older clang rejects the feature
// string at compile time; AVX2 support (checked separately) implies the OS
// ymm-state support the instruction needs.
bool cpu_has_avxvnni() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (eax & (1U << 4)) != 0;
}
#endif  // x86

#if SESR_INT8_AMX
// AMX-TILE and AMX-INT8 are CPUID.(EAX=7, ECX=0):EDX[24] and EDX[25]. Linux
// also gates the 8 KB tile data state: one ARCH_REQ_XCOMP_PERM request for
// XTILEDATA (state component 18) grants it to every thread of the process,
// and fails where the kernel does not support it.
bool amx_permitted() {
  static const bool permitted = [] {
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    constexpr unsigned kAmxTileInt8 = (1U << 24) | (1U << 25);
    if ((edx & kAmxTileInt8) != kAmxTileInt8) return false;
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
  }();
  return permitted;
}
#endif

bool int8_simd_disabled() {
  static const bool disabled = [] {
    const char* env = std::getenv("SESR_DISABLE_INT8_SIMD");
    return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  }();
  return disabled;
}

constexpr S8Kernel kKernelGeneric{"generic", each_row<row_generic>, quantize_u8_scalar};
#if defined(__x86_64__) || defined(__i386__)
constexpr S8Kernel kKernelAvx2{"avx2", each_row<row_avx2>, quantize_u8_avx2};
#if SESR_INT8_VNNI
constexpr S8Kernel kKernelVnni{"vnni", each_row<row_vnni>, quantize_u8_avx2};
#endif
#if SESR_INT8_AVX512VNNI
constexpr S8Kernel kKernelAvx512Vnni{"avx512vnni", each_row<row_avx512>, quantize_u8_avx512};
#endif
#if SESR_INT8_AMX
constexpr S8Kernel kKernelAmx{"amx", rows_amx, quantize_u8_avx512};
#endif
#endif

const S8Kernel* pick_s8_kernel() {
#if SESR_INT8_AMX
  if (gemm_s8_amx_supported()) return &kKernelAmx;
#endif
#if SESR_INT8_AVX512VNNI
  if (gemm_s8_avx512vnni_supported()) return &kKernelAvx512Vnni;
#endif
#if SESR_INT8_VNNI
  if (gemm_s8_vnni_supported()) return &kKernelVnni;
#endif
#if defined(__x86_64__) || defined(__i386__)
  if (gemm_s8_avx2_supported()) return &kKernelAvx2;
#endif
  return &kKernelGeneric;
}

// Atomic for the same reason as g_micro_kernel in gemm.cpp: the audit flips
// the dispatch between sweeps while pool workers may be reading it.
std::atomic<const S8Kernel*> g_s8_kernel{pick_s8_kernel()};

// Output rows [row0, row1) of the conv of `a` into the outputs `r` names.
void conv_rows_impl(S8Row r, const S8Image& a, const S8PackedWeights& w,
                    const std::int32_t* colsum, std::int64_t row0, std::int64_t row1,
                    const S8Epilogue* epi) {
  r.a = a.data;
  r.ps = a.pixel_stride;
  r.rs = a.row_stride;
  r.width = a.width;
  r.w = &w;
  r.colsum = colsum;
  r.epi = epi;
  if (epi != nullptr) r.res = epi->residual;
  g_s8_kernel.load(std::memory_order_relaxed)->rows(r, row0, row1);
}

void check_s8_sizes(std::size_t a_size, std::span<const std::int8_t> b,
                    std::span<const std::int32_t> colsum, std::size_t c_size, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  if (m < 0 || k < 0 || n < 0) throw std::invalid_argument("gemm_s8: negative dimension");
  if (a_size < static_cast<std::size_t>(m * k)) {
    throw std::invalid_argument("gemm_s8: A span too small");
  }
  if (b.size() < static_cast<std::size_t>(k * n)) {
    throw std::invalid_argument("gemm_s8: B span too small");
  }
  if (colsum.size() < static_cast<std::size_t>(n)) {
    throw std::invalid_argument("gemm_s8: colsum span too small");
  }
  if (c_size < static_cast<std::size_t>(m * n)) {
    throw std::invalid_argument("gemm_s8: C span too small");
  }
}

void check_s8_epilogue(const S8Epilogue& epi) {
  if (epi.scale == nullptr) throw std::invalid_argument("gemm_s8: epilogue.scale is required");
  if (epi.act == Epilogue::Act::kPRelu && epi.prelu_alpha == nullptr) {
    throw std::invalid_argument("gemm_s8: PReLU epilogue requires prelu_alpha");
  }
}

// The GEMM as a 1x1 conv: one image row of m pixels, in_c = k. A is copied so
// the kernels may read s8_image_slack bytes past the last pixel's k-run.
void gemm_s8_impl(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
                  std::span<const std::int32_t> colsum, float* c, std::int32_t* ci32,
                  std::int64_t m, std::int64_t k, std::int64_t n, const S8Epilogue* epi) {
  if (m <= 0 || n <= 0) return;
  const S8PackedWeights w = pack_s8_weights(b, 1, k, n);
  std::vector<std::uint8_t> img(static_cast<std::size_t>(m * k + s8_image_slack(w, k, k)), 128);
  std::copy(a.begin(), a.begin() + m * k, img.begin());
  const S8Image view{img.data(), k, m * k, m};
  S8Row out;
  out.c = c;
  out.ci32 = ci32;
  conv_rows_impl(out, view, w, colsum.data(), 0, 1, epi);
}

}  // namespace

void quantize_u8_run(const float* src, std::uint8_t* dst, std::int64_t n, float inv_scale) {
  g_s8_kernel.load(std::memory_order_relaxed)->quantize(src, dst, n, inv_scale);
}

std::vector<std::int32_t> s8_column_sums(std::span<const std::int8_t> b, std::int64_t k,
                                         std::int64_t n) {
  if (b.size() < static_cast<std::size_t>(k * n)) {
    throw std::invalid_argument("s8_column_sums: B span too small");
  }
  std::vector<std::int32_t> sums(static_cast<std::size_t>(n), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* row = b.data() + kk * n;
    for (std::int64_t j = 0; j < n; ++j) sums[static_cast<std::size_t>(j)] += row[j];
  }
  return sums;
}

S8PackedWeights pack_s8_weights(std::span<const std::int8_t> b, std::int64_t kh,
                                std::int64_t kwc, std::int64_t n) {
  if (kh < 0 || kwc < 0 || n < 0) throw std::invalid_argument("pack_s8_weights: negative size");
  if (b.size() < static_cast<std::size_t>(kh * kwc * n)) {
    throw std::invalid_argument("pack_s8_weights: B span too small");
  }
  S8PackedWeights w;
  w.kh = kh;
  w.n = n;
  w.narrow = n <= 4;
  w.run = w.narrow ? (kwc + 15) / 16 * 16 : (kwc + 3) / 4 * 4;
  w.cols = w.narrow ? 4 : (n + 15) / 16 * 16;
  const std::int64_t gr = w.run / 4;
  w.data.assign(static_cast<std::size_t>(kh * gr * w.cols * 4), 0);
  for (std::int64_t ky = 0; ky < kh; ++ky) {
    for (std::int64_t p = 0; p < kwc; ++p) {
      const std::int8_t* src = b.data() + (ky * kwc + p) * n;
      for (std::int64_t j = 0; j < n; ++j) {
        w.data[static_cast<std::size_t>(b_offset(w, ky * gr + p / 4, j) + p % 4)] =
            static_cast<std::uint8_t>(src[j]);
      }
    }
  }
  return w;
}

bool gemm_s8_avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return !int8_simd_disabled() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool gemm_s8_vnni_supported() {
#if SESR_INT8_VNNI
  return gemm_s8_avx2_supported() && cpu_has_avxvnni();
#else
  return false;
#endif
}

bool gemm_s8_avx512vnni_supported() {
#if SESR_INT8_AVX512VNNI
  return gemm_s8_avx2_supported() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

bool gemm_s8_amx_supported() {
#if SESR_INT8_AMX
  return gemm_s8_avx512vnni_supported() && amx_permitted();
#else
  return false;
#endif
}

std::int64_t s8_image_slack(const S8PackedWeights& w, std::int64_t kwc,
                            std::int64_t pixel_stride) {
  return (kTile - 1) * pixel_stride + w.run - kwc;
}

const char* gemm_s8_kernel_name() { return g_s8_kernel.load(std::memory_order_relaxed)->name; }

bool set_gemm_s8_isa(GemmS8Isa isa) {
  const S8Kernel* kern = nullptr;
  switch (isa) {
    case GemmS8Isa::kAuto:
      kern = pick_s8_kernel();
      break;
    case GemmS8Isa::kGeneric:
      kern = &kKernelGeneric;
      break;
    case GemmS8Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (gemm_s8_avx2_supported()) kern = &kKernelAvx2;
#endif
      break;
    case GemmS8Isa::kVnni:
#if SESR_INT8_VNNI
      if (gemm_s8_vnni_supported()) kern = &kKernelVnni;
#endif
      break;
    case GemmS8Isa::kAvx512Vnni:
#if SESR_INT8_AVX512VNNI
      if (gemm_s8_avx512vnni_supported()) kern = &kKernelAvx512Vnni;
#endif
      break;
    case GemmS8Isa::kAmx:
#if SESR_INT8_AMX
      if (gemm_s8_amx_supported()) kern = &kKernelAmx;
#endif
      break;
  }
  if (kern == nullptr) return false;
  g_s8_kernel.store(kern, std::memory_order_relaxed);
  return true;
}

void conv_s8_rows(const S8Image& a, const S8PackedWeights& w,
                  std::span<const std::int32_t> colsum, std::int64_t row0, std::int64_t row1,
                  float* c, const S8Epilogue& epilogue) {
  if (colsum.size() < static_cast<std::size_t>(w.n)) {
    throw std::invalid_argument("conv_s8_rows: colsum span too small");
  }
  check_s8_epilogue(epilogue);
  S8Row out;
  out.c = c;
  conv_rows_impl(out, a, w, colsum.data(), row0, row1, &epilogue);
}

void conv_s8_rows_u8(const S8Image& a, const S8PackedWeights& w,
                     std::span<const std::int32_t> colsum, std::int64_t row0, std::int64_t row1,
                     std::uint8_t* q, std::int64_t q_row_stride, float q_inv_scale,
                     const S8Epilogue& epilogue) {
  if (colsum.size() < static_cast<std::size_t>(w.n)) {
    throw std::invalid_argument("conv_s8_rows_u8: colsum span too small");
  }
  check_s8_epilogue(epilogue);
  S8Row out;
  out.q = q;
  out.qrs = q_row_stride;
  out.qinv = q_inv_scale;
  conv_rows_impl(out, a, w, colsum.data(), row0, row1, &epilogue);
}

void gemm_s8(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
             std::span<const std::int32_t> colsum, std::span<float> c, std::int64_t m,
             std::int64_t k, std::int64_t n, const S8Epilogue& epilogue) {
  check_s8_sizes(a.size(), b, colsum, c.size(), m, k, n);
  check_s8_epilogue(epilogue);
  gemm_s8_impl(a, b, colsum, c.data(), nullptr, m, k, n, &epilogue);
}

void gemm_s8_i32(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
                 std::span<const std::int32_t> colsum, std::span<std::int32_t> c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  check_s8_sizes(a.size(), b, colsum, c.size(), m, k, n);
  gemm_s8_impl(a, b, colsum, nullptr, c.data(), m, k, n, nullptr);
}

}  // namespace sesr::nn
