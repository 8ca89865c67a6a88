// Unit and property tests for the NN operator library: GEMM vs reference,
// im2col geometry, conv forward vs naive, analytic vs finite-difference
// gradients, transposed conv adjointness, activations, depth-to-space.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <tuple>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose.hpp"
#include "nn/depth_to_space.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/init.hpp"
#include "tensor/fp16.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {
namespace {

// ---------------------------------------------------------------- GEMM ------

void reference_gemm(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& c, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(101 + m * 31 + k * 7 + n);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(c.size());
  gemm(a, b, c, m, k, n);
  reference_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4F) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                                           std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 3),
                                           std::make_tuple(65, 33, 17),
                                           std::make_tuple(128, 9, 64),
                                           // exercise the 6x16 register-tile edges
                                           std::make_tuple(6, 16, 16), std::make_tuple(7, 17, 15),
                                           std::make_tuple(5, 300, 19),
                                           std::make_tuple(97, 144, 16),
                                           std::make_tuple(130, 260, 37)));

TEST(Gemm, AccumulateAddsToExisting) {
  std::vector<float> a{1.0F, 2.0F};
  std::vector<float> b{3.0F, 4.0F};
  std::vector<float> c{10.0F};
  // A^T of a [2 x 1] matrix is the same 1 x 2 row.
  gemm_at_b_accumulate(a, b, c, 1, 2, 1);
  EXPECT_FLOAT_EQ(c[0], 10.0F + 11.0F);
}

TEST(Gemm, TransposedVariantsMatchReference) {
  constexpr std::int64_t m = 6;
  constexpr std::int64_t k = 5;
  constexpr std::int64_t n = 4;
  Rng rng(7);
  std::vector<float> at(static_cast<std::size_t>(k * m));  // A stored [k x m]
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : at) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  // Materialize A = at^T.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) a[i * k + p] = at[p * m + i];
  }
  std::vector<float> want(static_cast<std::size_t>(m * n));
  reference_gemm(a, b, want, m, k, n);
  std::vector<float> got(want.size());
  gemm_at_b(at, b, got, m, k, n);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4F);

  // A * B^T with B stored [n x k].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  std::vector<float> got2(want.size());
  gemm_a_bt(a, bt, got2, m, k, n);
  for (std::size_t i = 0; i < got2.size(); ++i) EXPECT_NEAR(got2[i], want[i], 1e-4F);
}

TEST(Gemm, SizeCheckThrows) {
  std::vector<float> a(2);
  std::vector<float> b(2);
  std::vector<float> c(1);
  EXPECT_THROW(gemm(a, b, c, 2, 2, 2), std::invalid_argument);
}

TEST(Gemm, ZeroSkipMatchesDense) {
  constexpr std::int64_t m = 23;
  constexpr std::int64_t k = 31;
  constexpr std::int64_t n = 19;
  Rng rng(41);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  // Mostly-zero A, the regime the kernel is kept for.
  for (float& v : a) v = rng.uniform(0.0F, 1.0F) < 0.1F ? rng.uniform(-1.0F, 1.0F) : 0.0F;
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> dense(static_cast<std::size_t>(m * n));
  std::vector<float> skip(dense.size());
  gemm(a, b, dense, m, k, n);
  gemm_zero_skip(a, b, skip, m, k, n);
  for (std::size_t i = 0; i < dense.size(); ++i) EXPECT_NEAR(skip[i], dense[i], 1e-5F);
}

TEST(Gemm, BiasIsFusedIntoEpilogue) {
  constexpr std::int64_t m = 37;
  constexpr std::int64_t k = 65;
  constexpr std::int64_t n = 21;
  Rng rng(43);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : bias) v = rng.uniform(-2.0F, 2.0F);
  std::vector<float> plain(static_cast<std::size_t>(m * n));
  std::vector<float> fused(plain.size());
  gemm(a, b, plain, m, k, n);
  gemm_fused(a, b, bias, fused, m, k, n, Epilogue{});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      // Identical k-order in both kernels: adding bias on the store is exact.
      EXPECT_EQ(fused[i * n + j], plain[i * n + j] + bias[j]);
    }
  }
}

TEST(Gemm, FusedActivationBitIdenticalToTwoPass) {
  // The activation epilogue rides the GEMM write-back; it must equal the
  // two-pass form (the GEMM with bias, then an elementwise activation) bit for
  // bit, across shapes that hit full tiles, register-tile edges, the narrow
  // tile, and multiple k-blocks (where the bias rides the first block).
  const std::tuple<std::int64_t, std::int64_t, std::int64_t> shapes[] = {
      {1, 1, 1}, {7, 17, 15}, {65, 33, 17}, {6, 300, 19}, {37, 513, 21}, {41, 300, 3}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(53 + m + k + n);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    std::vector<float> alpha(static_cast<std::size_t>(n));
    for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : bias) v = rng.uniform(-2.0F, 2.0F);
    for (float& v : alpha) v = rng.uniform(-0.5F, 0.5F);
    std::vector<float> two_pass(static_cast<std::size_t>(m * n));
    gemm_fused(a, b, bias, two_pass, m, k, n, Epilogue{});
    std::vector<float> relu_want = two_pass;
    for (float& v : relu_want) v = v > 0.0F ? v : 0.0F;
    std::vector<float> prelu_want = two_pass;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float& v = prelu_want[i * n + j];
        v = v > 0.0F ? v : alpha[j] * v;
      }
    }
    std::vector<float> got(two_pass.size());
    gemm_fused(a, b, bias, got, m, k, n, Epilogue{Epilogue::Act::kRelu, nullptr});
    EXPECT_EQ(got, relu_want) << "relu m=" << m << " k=" << k << " n=" << n;
    gemm_fused(a, b, bias, got, m, k, n, Epilogue{Epilogue::Act::kPRelu, alpha.data()});
    EXPECT_EQ(got, prelu_want) << "prelu m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Gemm, FusedPReluRequiresAlpha) {
  std::vector<float> a(4);
  std::vector<float> b(4);
  std::vector<float> c(4);
  EXPECT_THROW(gemm_fused(a, b, {}, c, 2, 2, 2, Epilogue{Epilogue::Act::kPRelu, nullptr}),
               std::invalid_argument);
}

// Row producers for the gemm_rows tests: a stored [m x k] matrix.
template <typename T>
struct StoredRows {
  const T* a;
  std::int64_t k;
};

const float* half_row(const void* ctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                      float* buf) {
  const auto& s = *static_cast<const StoredRows<fp16::Half>*>(ctx);
  fp16::convert_to_float(s.a + row * s.k + p0, buf, kc);
  return buf;
}

TEST(Gemm, Fp16WeightsMatchWidenedFp32) {
  // gemm_rows widens binary16 operands into the same packed panels as the
  // fp32 kernel, so it must agree bitwise with widening up front and calling
  // gemm_fused on the fp32 copies.
  const std::tuple<std::int64_t, std::int64_t, std::int64_t> shapes[] = {
      {1, 1, 1}, {7, 17, 15}, {25, 300, 33}, {97, 40, 17}, {53, 300, 4}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(59 + m + k + n);
    std::vector<float> af(static_cast<std::size_t>(m * k));
    std::vector<float> bf(static_cast<std::size_t>(k * n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (float& v : af) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : bf) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : bias) v = rng.uniform(-1.0F, 1.0F);
    std::vector<fp16::Half> ah(af.size());
    std::vector<fp16::Half> bh(bf.size());
    fp16::convert_to_half(af.data(), ah.data(), static_cast<std::int64_t>(af.size()));
    fp16::convert_to_half(bf.data(), bh.data(), static_cast<std::int64_t>(bf.size()));
    // Widen the *rounded* halves back so both kernels see identical values.
    fp16::convert_to_float(ah.data(), af.data(), static_cast<std::int64_t>(af.size()));
    fp16::convert_to_float(bh.data(), bf.data(), static_cast<std::int64_t>(bf.size()));
    std::vector<float> want(static_cast<std::size_t>(m * n));
    std::vector<float> got(want.size());
    const Epilogue epilogue{Epilogue::Act::kRelu, nullptr};
    gemm_fused(af, bf, bias, want, m, k, n, epilogue);
    const StoredRows<fp16::Half> rows{ah.data(), k};
    gemm_rows(half_row, &rows, bh, bias, got, m, k, n, epilogue);
    EXPECT_EQ(got, want) << "m=" << m << " k=" << k << " n=" << n;
  }
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

TEST(Gemm, NarrowTileMatchesWideTile) {
  // n <= 4 runs the 16x4 narrow tile; padding B (and bias, slopes) to 17
  // columns runs the 6x16 wide tile on the same leading columns. Both sum
  // p-sequentially, so act(A * B + bias) must agree bit for bit, under each
  // micro-kernel build, for fp32 and binary16 B, and across the kKc = 256
  // k-block split (k = 400).
  constexpr std::int64_t m = 101;  // two row blocks of 96, ragged 16-row tiles
  constexpr std::int64_t wide = 17;
  for (const GemmIsa isa : {GemmIsa::kGeneric, GemmIsa::kAvx2}) {
    if (!set_gemm_isa(isa)) continue;
    for (const std::int64_t k : {25, 144, 400}) {
      Rng rng(61 + k);
      std::vector<float> a(static_cast<std::size_t>(m * k));
      for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
      // B values are binary16-exact so one draw serves both storage types.
      std::vector<float> bw(static_cast<std::size_t>(k * wide));
      for (float& v : bw) v = fp16::half_to_float(fp16::float_to_half(rng.uniform(-1.0F, 1.0F)));
      std::vector<float> bias(wide);
      std::vector<float> alpha(wide);
      for (float& v : bias) v = rng.uniform(-1.0F, 1.0F);
      for (float& v : alpha) v = rng.uniform(-0.5F, 0.5F);
      const StoredRows<float> rows{a.data(), k};
      const RowSource float_row = [](const void* ctx, std::int64_t row, std::int64_t p0,
                                     std::int64_t, float*) -> const float* {
        const auto& s = *static_cast<const StoredRows<float>*>(ctx);
        return s.a + row * s.k + p0;
      };
      for (std::int64_t n = 1; n <= 4; ++n) {
        std::vector<float> bn(static_cast<std::size_t>(k * n));
        for (std::int64_t p = 0; p < k; ++p) {
          for (std::int64_t j = 0; j < n; ++j) bn[p * n + j] = bw[p * wide + j];
        }
        std::vector<fp16::Half> bnh(bn.size());
        fp16::convert_to_half(bn.data(), bnh.data(), static_cast<std::int64_t>(bn.size()));
        for (const auto act : {Epilogue::Act::kNone, Epilogue::Act::kRelu, Epilogue::Act::kPRelu}) {
          const Epilogue epi{act, act == Epilogue::Act::kPRelu ? alpha.data() : nullptr};
          std::vector<float> full(static_cast<std::size_t>(m * wide));
          gemm_fused(a, bw, bias, full, m, k, wide, epi);
          std::vector<float> want(static_cast<std::size_t>(m * n));
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) want[i * n + j] = full[i * wide + j];
          }
          const std::span<const float> bias_n(bias.data(), static_cast<std::size_t>(n));
          std::vector<float> got(want.size());
          gemm_fused(a, bn, bias_n, got, m, k, n, epi);
          EXPECT_EQ(float_bits(got), float_bits(want))
              << "fp32 B, isa=" << static_cast<int>(isa) << " k=" << k << " n=" << n;
          gemm_rows(float_row, &rows, bnh, bias_n, got, m, k, n, epi);
          EXPECT_EQ(float_bits(got), float_bits(want))
              << "fp16 B, isa=" << static_cast<int>(isa) << " k=" << k << " n=" << n;
        }
      }
    }
  }
  set_gemm_isa(GemmIsa::kAuto);
}

TEST(Gemm, AtBAccumulateMatchesReference) {
  constexpr std::int64_t m = 29;
  constexpr std::int64_t k = 330;  // spans two k-blocks
  constexpr std::int64_t n = 18;
  Rng rng(47);
  std::vector<float> at(static_cast<std::size_t>(k * m));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : at) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) a[i * k + p] = at[p * m + i];
  }
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.5F);
  std::vector<float> ref(want.size());
  reference_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < want.size(); ++i) ref[i] += want[i];
  gemm_at_b_accumulate(at, b, want, m, k, n);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(want[i], ref[i], 1e-3F);
}

// ------------------------------------------------------------- im2col -------

TEST(Im2col, SameGeometryOddKernel) {
  const ConvGeometry g = same_geometry(5, 7, 3, 3, 3);
  EXPECT_EQ(g.out_h, 5);
  EXPECT_EQ(g.out_w, 7);
  EXPECT_EQ(g.pad_top, 1);
  EXPECT_EQ(g.pad_left, 1);
  EXPECT_EQ(g.rows(), 35);
  EXPECT_EQ(g.cols(), 27);
}

TEST(Im2col, SameGeometryEvenKernelPadsBottomRight) {
  // TF convention: pad_total = k - 1 = 1 -> pad_top = 0 (extra at bottom).
  const ConvGeometry g = same_geometry(4, 4, 1, 2, 2);
  EXPECT_EQ(g.out_h, 4);
  EXPECT_EQ(g.pad_top, 0);
  EXPECT_EQ(g.pad_left, 0);
}

TEST(Im2col, SameGeometryStride2) {
  const ConvGeometry g = same_geometry(9, 9, 1, 3, 3, 2);
  EXPECT_EQ(g.out_h, 5);
  EXPECT_EQ(g.out_w, 5);
}

TEST(Im2col, ValidGeometry) {
  const ConvGeometry g = valid_geometry(9, 9, 2, 5, 5);
  EXPECT_EQ(g.out_h, 5);
  EXPECT_EQ(g.out_w, 5);
  EXPECT_THROW(valid_geometry(3, 3, 1, 5, 5), std::invalid_argument);
}

TEST(Im2col, ExtractsReceptiveFields) {
  Tensor x(1, 3, 3, 1);
  for (std::int64_t y = 0; y < 3; ++y) {
    for (std::int64_t i = 0; i < 3; ++i) x(0, y, i, 0) = static_cast<float>(y * 3 + i);
  }
  const ConvGeometry g = same_geometry(3, 3, 1, 3, 3);
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  im2col(x, 0, g, cols.data());
  // Center output pixel (1,1) sees the full image in order.
  const float* row = cols.data() + (1 * 3 + 1) * g.cols();
  for (int i = 0; i < 9; ++i) EXPECT_EQ(row[i], static_cast<float>(i));
  // Corner output (0,0): top-left taps are zero padding.
  const float* corner = cols.data();
  EXPECT_EQ(corner[0], 0.0F);  // (-1,-1)
  EXPECT_EQ(corner[4], 0.0F);  // (-1, 1) -- still off-image row
  EXPECT_EQ(corner[3 * 1 + 1], x(0, 0, 0, 0));
}

TEST(Im2col, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjointness).
  Rng rng(23);
  Tensor x(1, 4, 5, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  const ConvGeometry g = same_geometry(4, 5, 3, 3, 2);
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  im2col(x, 0, g, cols.data());
  std::vector<float> y(cols.size());
  for (float& v : y) v = rng.uniform(-1.0F, 1.0F);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += static_cast<double>(cols[i]) * y[i];
  Tensor xt(1, 4, 5, 3);
  col2im_add(y.data(), g, xt, 0);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.raw()[i]) * xt.raw()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---------------------------------------------------------------- conv ------

class ConvShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int, int>> {};

TEST_P(ConvShapes, GemmPathMatchesNaive) {
  const auto [h, w, in_c, out_c, kh, kw, pad_same] = GetParam();
  Rng rng(h * 131 + w * 17 + kh * 5 + kw * 3 + in_c + out_c);
  Tensor x(2, h, w, in_c);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor weight = he_normal_kernel(kh, kw, in_c, out_c, rng);
  const Padding pad = pad_same != 0 ? Padding::kSame : Padding::kValid;
  if (pad == Padding::kValid && (h < kh || w < kw)) GTEST_SKIP();
  Tensor fast = conv2d(x, weight, pad);
  Tensor slow = conv2d_naive(x, weight, pad);
  EXPECT_EQ(fast.shape(), slow.shape());
  EXPECT_LT(max_abs_diff(fast, slow), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Values(std::make_tuple(6, 6, 1, 4, 3, 3, 1), std::make_tuple(6, 6, 3, 2, 5, 5, 1),
                      std::make_tuple(5, 7, 2, 3, 1, 1, 1), std::make_tuple(8, 8, 2, 2, 2, 2, 1),
                      std::make_tuple(7, 6, 3, 3, 3, 2, 1), std::make_tuple(6, 7, 2, 4, 2, 3, 1),
                      std::make_tuple(9, 9, 1, 1, 5, 5, 0), std::make_tuple(7, 7, 2, 2, 3, 3, 0),
                      std::make_tuple(16, 16, 4, 8, 3, 3, 1),
                      // channel counts off the 6x16 tile grid, kh != kw
                      std::make_tuple(10, 9, 5, 7, 3, 1, 1),
                      std::make_tuple(9, 10, 3, 19, 1, 3, 1),
                      std::make_tuple(13, 11, 7, 17, 3, 3, 0),
                      // 1x1 fast path (no im2col) over a non-square image
                      std::make_tuple(12, 7, 5, 9, 1, 1, 1),
                      std::make_tuple(12, 7, 5, 9, 1, 1, 0)));

TEST(Conv2d, Stride2MatchesNaive) {
  Rng rng(3);
  Tensor x(1, 9, 9, 2);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 2, 4, rng);
  Tensor fast = conv2d(x, w, Padding::kSame, 2);
  Tensor slow = conv2d_naive(x, w, Padding::kSame, 2);
  EXPECT_EQ(fast.shape(), Shape(1, 5, 5, 4));
  EXPECT_LT(max_abs_diff(fast, slow), 1e-4F);
}

TEST(Conv2d, ZeroSkipPathMatchesNaive) {
  // The Algorithm-1 probe path: mostly-zero input through the branchy kernel.
  Rng rng(11);
  Tensor x(1, 9, 9, 4);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.raw()[i] = rng.uniform(0.0F, 1.0F) < 0.05F ? rng.uniform(-1.0F, 1.0F) : 0.0F;
  }
  Tensor w = he_normal_kernel(3, 3, 4, 5, rng);
  Tensor fast = conv2d_zero_skip(x, w, Padding::kValid);
  Tensor slow = conv2d_naive(x, w, Padding::kValid);
  EXPECT_EQ(fast.shape(), slow.shape());
  EXPECT_LT(max_abs_diff(fast, slow), 1e-4F);
}

TEST(Conv2d, FusedBiasMatchesSeparateAdd) {
  Rng rng(13);
  Tensor x(2, 8, 9, 5);
  x.fill_uniform(rng, -1.0F, 1.0F);
  for (const auto& [kh, kw] : {std::pair<int, int>{3, 3}, std::pair<int, int>{1, 1}}) {
    Tensor w = he_normal_kernel(kh, kw, 5, 7, rng);
    Tensor bias(1, 1, 1, 7);
    bias.fill_uniform(rng, -2.0F, 2.0F);
    Tensor fused = conv2d_bias(x, w, bias, Padding::kSame);
    Tensor plain = conv2d(x, w, Padding::kSame);
    for (std::int64_t i = 0; i < plain.numel(); ++i) {
      plain.raw()[i] += bias.raw()[i % 7];
    }
    EXPECT_EQ(max_abs_diff(fused, plain), 0.0F) << "kernel " << kh << "x" << kw;
  }
}

TEST(Conv2d, FusedActivationBitIdenticalToTwoPass) {
  // conv2d_fused must equal conv2d_bias followed by the elementwise
  // activation exactly, in both the striped-im2col and 1x1 fast paths, with
  // odd spatial extents that leave partial stripes.
  Rng rng(61);
  Tensor x(2, 13, 11, 5);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor alpha(1, 1, 1, 7);
  alpha.fill_uniform(rng, -0.5F, 0.5F);
  for (const auto& [kh, kw] : {std::pair<int, int>{3, 3}, std::pair<int, int>{1, 1}}) {
    Tensor w = he_normal_kernel(kh, kw, 5, 7, rng);
    Tensor bias(1, 1, 1, 7);
    bias.fill_uniform(rng, -2.0F, 2.0F);
    Tensor two_pass = conv2d_bias(x, w, bias, Padding::kSame);
    Tensor relu_want = two_pass;
    for (std::int64_t i = 0; i < relu_want.numel(); ++i) {
      float& v = relu_want.raw()[i];
      v = v > 0.0F ? v : 0.0F;
    }
    Tensor prelu_want = two_pass;
    for (std::int64_t i = 0; i < prelu_want.numel(); ++i) {
      float& v = prelu_want.raw()[i];
      v = v > 0.0F ? v : alpha.raw()[i % 7] * v;
    }
    const Tensor relu_got =
        conv2d_fused(x, w, &bias, Epilogue{Epilogue::Act::kRelu, nullptr}, Padding::kSame);
    const Tensor prelu_got =
        conv2d_fused(x, w, &bias, Epilogue{Epilogue::Act::kPRelu, alpha.raw()}, Padding::kSame);
    EXPECT_EQ(max_abs_diff(relu_got, relu_want), 0.0F) << "kernel " << kh << "x" << kw;
    EXPECT_EQ(max_abs_diff(prelu_got, prelu_want), 0.0F) << "kernel " << kh << "x" << kw;
    // Without bias or activation it reduces to plain conv2d.
    const Tensor plain = conv2d_fused(x, w, nullptr, Epilogue{}, Padding::kSame);
    EXPECT_EQ(max_abs_diff(plain, conv2d(x, w, Padding::kSame)), 0.0F);
  }
}

TEST(Conv2d, Fp16FusedEpilogueMatchesTwoPass) {
  // Same law on the reduced-precision path: the fp32-output variant applies
  // the epilogue before any rounding, so fused == act(two-pass) bitwise; the
  // fp16-output variant rounds exactly once after the epilogue.
  Rng rng(67);
  Tensor x(1, 9, 15, 4);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 4, 6, rng);
  const fp16::HalfTensor hx = fp16::HalfTensor::from_float(x);
  const fp16::HalfTensor hw = fp16::HalfTensor::from_float(w);
  const Epilogue relu{Epilogue::Act::kRelu, nullptr};
  Tensor want = conv2d_fp16_to_float(hx, hw, nullptr, Epilogue{}, Padding::kSame);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    float& v = want.raw()[i];
    v = v > 0.0F ? v : 0.0F;
  }
  const Tensor got_f32 = conv2d_fp16_to_float(hx, hw, nullptr, relu, Padding::kSame);
  EXPECT_EQ(max_abs_diff(got_f32, want), 0.0F);
  const Tensor got_f16 = conv2d_fp16(hx, hw, nullptr, relu, Padding::kSame).to_float();
  fp16::round_through_half(want.raw(), want.numel());
  EXPECT_EQ(max_abs_diff(got_f16, want), 0.0F);
}

TEST(Conv2d, BackwardWeightBiasMatchesSeparatePasses) {
  Rng rng(17);
  Tensor x(2, 7, 6, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 3, 5, rng);
  Tensor go(2, 7, 6, 5);
  go.fill_uniform(rng, -1.0F, 1.0F);
  Tensor gw_fused(w.shape());
  Tensor gb_fused(1, 1, 1, 5);
  conv2d_backward_weight_bias(x, go, gw_fused, gb_fused, Padding::kSame);
  Tensor gw_plain(w.shape());
  conv2d_backward_weight(x, go, gw_plain, Padding::kSame);
  EXPECT_EQ(max_abs_diff(gw_fused, gw_plain), 0.0F);
  // Reference bias grad: column sums of grad_output.
  Tensor gb_ref(1, 1, 1, 5);
  for (std::int64_t i = 0; i < go.numel(); ++i) gb_ref.raw()[i % 5] += go.raw()[i];
  EXPECT_LT(max_abs_diff(gb_fused, gb_ref), 1e-4F);
}

TEST(Conv2d, BitIdenticalAcrossThreadCounts) {
  // Forward, input-grad and weight/bias-grad must not depend on
  // SESR_NUM_THREADS: stripes are fixed by shape and every reduction order is
  // pinned, so 1 thread and 4 threads agree bit for bit.
  Rng rng(19);
  Tensor x(1, 37, 29, 8);  // N=1: exercises intra-image striping
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 8, 16, rng);
  Tensor w1 = he_normal_kernel(1, 1, 8, 16, rng);
  Tensor bias(1, 1, 1, 16);
  bias.fill_uniform(rng, -1.0F, 1.0F);
  Tensor go(1, 37, 29, 16);
  go.fill_uniform(rng, -1.0F, 1.0F);

  struct Results {
    Tensor fwd, fwd_1x1, gin, gw, gb;
  };
  const auto run = [&] {
    Results r;
    r.fwd = conv2d_bias(x, w, bias, Padding::kSame);
    r.fwd_1x1 = conv2d(x, w1, Padding::kSame);
    r.gin = conv2d_backward_input(go, w, x.shape(), Padding::kSame);
    r.gw = Tensor(w.shape());
    r.gb = Tensor(1, 1, 1, 16);
    conv2d_backward_weight_bias(x, go, r.gw, r.gb, Padding::kSame);
    return r;
  };
  ThreadPool::set_global_threads(1);
  const Results serial = run();
  ThreadPool::set_global_threads(4);
  const Results threaded = run();
  // Restore the env-configured pool for the remaining tests.
  unsigned restore = std::thread::hardware_concurrency();
  if (const char* env = std::getenv("SESR_NUM_THREADS")) {
    const long t = std::strtol(env, nullptr, 10);
    restore = t > 0 ? static_cast<unsigned>(t) : 1U;
  }
  ThreadPool::set_global_threads(restore > 0 ? restore : 1U);
  EXPECT_EQ(max_abs_diff(serial.fwd, threaded.fwd), 0.0F);
  EXPECT_EQ(max_abs_diff(serial.fwd_1x1, threaded.fwd_1x1), 0.0F);
  EXPECT_EQ(max_abs_diff(serial.gin, threaded.gin), 0.0F);
  EXPECT_EQ(max_abs_diff(serial.gw, threaded.gw), 0.0F);
  EXPECT_EQ(max_abs_diff(serial.gb, threaded.gb), 0.0F);
}

TEST(Conv2d, IdentityKernelIsIdentity) {
  Rng rng(5);
  Tensor x(1, 6, 6, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor id = identity_kernel(3, 3, 3);
  Tensor y = conv2d(x, id, Padding::kSame);
  EXPECT_LT(max_abs_diff(x, y), 1e-6F);
}

TEST(Conv2d, ChannelMismatchThrows) {
  Tensor x(1, 4, 4, 2);
  Rng rng(1);
  Tensor w = he_normal_kernel(3, 3, 3, 1, rng);
  EXPECT_THROW(conv2d(x, w, Padding::kSame), std::invalid_argument);
}

TEST(Conv2d, BiasIsAdded) {
  Tensor x(1, 2, 2, 1);
  Tensor w(kernel_shape(1, 1, 1, 2));
  w(0, 0, 0, 0) = 1.0F;
  w(0, 0, 0, 1) = 2.0F;
  Tensor b(1, 1, 1, 2);
  b.raw()[0] = 10.0F;
  b.raw()[1] = 20.0F;
  x.fill(1.0F);
  Tensor y = conv2d_bias(x, w, b, Padding::kSame);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 11.0F);
  EXPECT_FLOAT_EQ(y(0, 1, 1, 1), 22.0F);
}

// Finite-difference gradient checks for the conv layer.
TEST(Conv2d, WeightGradientMatchesFiniteDifference) {
  Rng rng(31);
  Tensor x(1, 5, 5, 2);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 2, 2, rng);
  Tensor grad_out(1, 5, 5, 2);
  grad_out.fill_uniform(rng, -1.0F, 1.0F);

  Tensor grad_w(w.shape());
  conv2d_backward_weight(x, grad_out, grad_w, Padding::kSame);

  // loss = <conv(x, w), grad_out>; check d(loss)/d(w) numerically.
  auto loss = [&](const Tensor& weight) {
    Tensor y = conv2d(x, weight, Padding::kSame);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.raw()[i]) * grad_out.raw()[i];
    }
    return acc;
  };
  constexpr float kEps = 1e-3F;
  for (std::int64_t i = 0; i < w.numel(); i += 7) {  // sample every 7th weight
    Tensor wp = w;
    wp.raw()[i] += kEps;
    Tensor wm = w;
    wm.raw()[i] -= kEps;
    const double numeric = (loss(wp) - loss(wm)) / (2.0 * kEps);
    EXPECT_NEAR(grad_w.raw()[i], numeric, 5e-2) << "weight index " << i;
  }
}

TEST(Conv2d, InputGradientMatchesFiniteDifference) {
  Rng rng(37);
  Tensor x(1, 4, 4, 2);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(3, 3, 2, 3, rng);
  Tensor grad_out(1, 4, 4, 3);
  grad_out.fill_uniform(rng, -1.0F, 1.0F);
  Tensor grad_in = conv2d_backward_input(grad_out, w, x.shape(), Padding::kSame);
  auto loss = [&](const Tensor& input) {
    Tensor y = conv2d(input, w, Padding::kSame);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.raw()[i]) * grad_out.raw()[i];
    }
    return acc;
  };
  constexpr float kEps = 1e-3F;
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x;
    xp.raw()[i] += kEps;
    Tensor xm = x;
    xm.raw()[i] -= kEps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * kEps);
    EXPECT_NEAR(grad_in.raw()[i], numeric, 5e-2) << "input index " << i;
  }
}

TEST(Conv2dLayer, ForwardBackwardShapes) {
  Rng rng(41);
  Conv2d layer("conv", 3, 3, 2, 4, Padding::kSame, /*with_bias=*/true, rng);
  Tensor x(2, 6, 6, 2);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor y = layer.forward(x, /*training=*/true);
  EXPECT_EQ(y.shape(), Shape(2, 6, 6, 4));
  Tensor grad_in = layer.backward(y);
  EXPECT_EQ(grad_in.shape(), x.shape());
  EXPECT_EQ(layer.parameters().size(), 2U);
  EXPECT_GT(max_abs(layer.weight().grad), 0.0F);
}

TEST(Conv2dLayer, BackwardWithoutForwardThrows) {
  Rng rng(43);
  Conv2d layer("conv", 3, 3, 1, 1, Padding::kSame, false, rng);
  Tensor g(1, 4, 4, 1);
  EXPECT_THROW(layer.backward(g), std::logic_error);
}

// ------------------------------------------------------ transposed conv -----

TEST(ConvTranspose, OutputShapeIsScaled) {
  Rng rng(47);
  ConvTranspose2d layer("deconv", 9, 9, 56, 1, 2, rng);
  Tensor x(1, 6, 5, 56);
  x.fill_uniform(rng, -0.1F, 0.1F);
  Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.shape(), Shape(1, 12, 10, 1));
}

TEST(ConvTranspose, AdjointOfStridedConv) {
  // <conv_T(x), y> == <x, conv(y)> with the shared kernel.
  Rng rng(53);
  constexpr std::int64_t scale = 2;
  Tensor x(1, 4, 4, 3);  // LR input, 3 channels
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = he_normal_kernel(5, 5, 1, 3, rng);  // (kh, kw, out_c=1, in_c=3)
  Tensor up = conv_transpose2d(x, w, scale);     // (1, 8, 8, 1)
  Tensor y(1, 8, 8, 1);
  y.fill_uniform(rng, -1.0F, 1.0F);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < up.numel(); ++i) {
    lhs += static_cast<double>(up.raw()[i]) * y.raw()[i];
  }
  Tensor down = conv2d(y, w, Padding::kSame, scale);  // (1, 4, 4, 3)
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.raw()[i]) * down.raw()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(ConvTranspose, GradientMatchesFiniteDifference) {
  Rng rng(59);
  ConvTranspose2d layer("deconv", 3, 3, 2, 1, 2, rng);
  Tensor x(1, 3, 3, 2);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor grad_out(1, 6, 6, 1);
  grad_out.fill_uniform(rng, -1.0F, 1.0F);
  layer.forward(x, true);
  nn::zero_gradients(layer.parameters());
  layer.backward(grad_out);
  Tensor& w = layer.weight().value;
  const Tensor& gw = layer.weight().grad;
  auto loss = [&](float delta, std::int64_t idx) {
    w.raw()[idx] += delta;
    Tensor y = conv_transpose2d(x, w, 2);
    w.raw()[idx] -= delta;
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.raw()[i]) * grad_out.raw()[i];
    }
    return acc;
  };
  constexpr float kEps = 1e-3F;
  for (std::int64_t i = 0; i < w.numel(); i += 3) {
    const double numeric = (loss(kEps, i) - loss(-kEps, i)) / (2.0 * kEps);
    EXPECT_NEAR(gw.raw()[i], numeric, 5e-2) << "weight index " << i;
  }
}

// ---------------------------------------------------------- activations -----

TEST(Relu, ForwardClampsNegatives) {
  Tensor x(1, 1, 3, 1);
  x(0, 0, 0, 0) = -1.0F;
  x(0, 0, 1, 0) = 0.0F;
  x(0, 0, 2, 0) = 2.0F;
  Tensor y = relu(x);
  EXPECT_EQ(y(0, 0, 0, 0), 0.0F);
  EXPECT_EQ(y(0, 0, 2, 0), 2.0F);
}

TEST(Relu, BackwardMasksGradient) {
  Tensor x(1, 1, 2, 1);
  x(0, 0, 0, 0) = -1.0F;
  x(0, 0, 1, 0) = 1.0F;
  Tensor g(1, 1, 2, 1);
  g.fill(5.0F);
  Tensor gi = relu_backward(x, g);
  EXPECT_EQ(gi(0, 0, 0, 0), 0.0F);
  EXPECT_EQ(gi(0, 0, 1, 0), 5.0F);
}

TEST(PRelu, ForwardUsesPerChannelSlope) {
  PRelu layer("act", 2, 0.25F);
  layer.alpha().value.raw()[1] = 0.5F;
  Tensor x(1, 1, 1, 2);
  x(0, 0, 0, 0) = -2.0F;
  x(0, 0, 0, 1) = -2.0F;
  Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), -0.5F);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), -1.0F);
}

TEST(PRelu, GradientMatchesFiniteDifference) {
  Rng rng(61);
  PRelu layer("act", 3);
  Tensor x(1, 4, 4, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor grad_out(1, 4, 4, 3);
  grad_out.fill_uniform(rng, -1.0F, 1.0F);
  layer.forward(x, true);
  nn::zero_gradients(layer.parameters());
  Tensor grad_in = layer.backward(grad_out);

  auto loss_alpha = [&](std::int64_t idx, float delta) {
    layer.alpha().value.raw()[idx] += delta;
    Tensor y = layer.forward(x, false);
    layer.alpha().value.raw()[idx] -= delta;
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.raw()[i]) * grad_out.raw()[i];
    }
    return acc;
  };
  constexpr float kEps = 1e-3F;
  for (std::int64_t c = 0; c < 3; ++c) {
    const double numeric = (loss_alpha(c, kEps) - loss_alpha(c, -kEps)) / (2.0 * kEps);
    EXPECT_NEAR(layer.alpha().grad.raw()[c], numeric, 5e-2);
  }
  // Input gradient at a negative input is alpha * upstream.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float expected =
        x.raw()[i] > 0.0F
            ? grad_out.raw()[i]
            : layer.alpha().value.raw()[i % 3] * grad_out.raw()[i];
    EXPECT_NEAR(grad_in.raw()[i], expected, 1e-6F);
  }
}

// ------------------------------------------------------- depth to space -----

TEST(DepthToSpace, MatchesTfSemantics) {
  // 1x1 spatial, 4 channels, block 2 -> 2x2 single channel in row-major order.
  Tensor x(1, 1, 1, 4);
  for (int c = 0; c < 4; ++c) x(0, 0, 0, c) = static_cast<float>(c);
  Tensor y = depth_to_space(x, 2);
  EXPECT_EQ(y.shape(), Shape(1, 2, 2, 1));
  EXPECT_EQ(y(0, 0, 0, 0), 0.0F);
  EXPECT_EQ(y(0, 0, 1, 0), 1.0F);
  EXPECT_EQ(y(0, 1, 0, 0), 2.0F);
  EXPECT_EQ(y(0, 1, 1, 0), 3.0F);
}

TEST(DepthToSpace, RoundTripWithSpaceToDepth) {
  Rng rng(67);
  Tensor x(2, 3, 4, 8);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor y = depth_to_space(x, 2);
  EXPECT_EQ(y.shape(), Shape(2, 6, 8, 2));
  Tensor back = space_to_depth(y, 2);
  EXPECT_EQ(max_abs_diff(x, back), 0.0F);
}

TEST(DepthToSpace, DoubleShuffleEqualsBlock4) {
  // Two r=2 shuffles on 16 channels == one r=4 shuffle with suitably permuted
  // channels; we verify shapes and that both are permutations of the data.
  Rng rng(71);
  Tensor x(1, 2, 2, 16);
  x.fill_uniform(rng, 0.0F, 1.0F);
  Tensor twice = depth_to_space(depth_to_space(x, 2), 2);
  EXPECT_EQ(twice.shape(), Shape(1, 8, 8, 1));
  Tensor once = depth_to_space(x, 4);
  EXPECT_EQ(once.shape(), Shape(1, 8, 8, 1));
  EXPECT_NEAR(sum(twice), sum(once), 1e-4F);
}

TEST(DepthToSpace, RejectsBadChannelCount) {
  Tensor x(1, 2, 2, 3);
  EXPECT_THROW(depth_to_space(x, 2), std::invalid_argument);
  Tensor y(1, 3, 3, 1);
  EXPECT_THROW(space_to_depth(y, 2), std::invalid_argument);
}

TEST(DepthToSpaceLayer, BackwardIsExactInverse) {
  Rng rng(73);
  DepthToSpace layer("d2s", 2);
  Tensor x(1, 3, 3, 4);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor y = layer.forward(x, true);
  Tensor gi = layer.backward(y);
  EXPECT_EQ(max_abs_diff(gi, x), 0.0F);
}

// ----------------------------------------------------------------- init -----

TEST(Init, HeNormalStddev) {
  Rng rng(79);
  Tensor w = he_normal_kernel(3, 3, 64, 64, rng);
  double sq = 0.0;
  for (float v : w.data()) sq += static_cast<double>(v) * v;
  const double stddev = std::sqrt(sq / static_cast<double>(w.numel()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / (9.0 * 64.0)), 0.005);
}

TEST(Init, GlorotUniformBounds) {
  Rng rng(83);
  Tensor w = glorot_uniform_kernel(3, 3, 16, 16, rng);
  const float limit = std::sqrt(6.0F / (9.0F * 16 + 9.0F * 16));
  for (float v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(Init, IdentityKernelRejectsEven) {
  EXPECT_THROW(identity_kernel(2, 3, 4), std::invalid_argument);
  EXPECT_THROW(identity_kernel(3, 2, 4), std::invalid_argument);
}

TEST(LayerUtils, GradientNormAndZero) {
  Rng rng(89);
  Conv2d a("a", 1, 1, 1, 1, Padding::kSame, false, rng);
  Conv2d b("b", 1, 1, 1, 1, Padding::kSame, false, rng);
  auto params = collect_parameters({&a, &b});
  EXPECT_EQ(params.size(), 2U);
  a.weight().grad.fill(3.0F);
  b.weight().grad.fill(4.0F);
  EXPECT_FLOAT_EQ(gradient_norm(params), 5.0F);
  zero_gradients(params);
  EXPECT_FLOAT_EQ(gradient_norm(params), 0.0F);
}

TEST(LayerUtils, ParameterMapRoundTrip) {
  Rng rng(97);
  Conv2d a("layer", 3, 3, 2, 2, Padding::kSame, true, rng);
  auto params = a.parameters();
  TensorMap map = parameters_to_map(params);
  EXPECT_EQ(map.size(), 2U);
  Tensor saved = a.weight().value;
  a.weight().value.fill(0.0F);
  load_parameters_from_map(params, map);
  EXPECT_EQ(max_abs_diff(a.weight().value, saved), 0.0F);
}

}  // namespace
}  // namespace sesr::nn
