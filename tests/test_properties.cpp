// Cross-cutting property tests (TEST_P sweeps): algebraic identities the
// library must satisfy for ANY configuration in the paper's design space.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <tuple>

#include "core/collapse.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "data/augment.hpp"
#include "data/synthetic.hpp"
#include "metrics/psnr.hpp"
#include "metrics/ssim.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/init.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr {
namespace {

// ------------------------- convolution is linear -----------------------------

class ConvLinearity : public ::testing::TestWithParam<int> {};

TEST_P(ConvLinearity, ConvIsLinearInInput) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::int64_t in_c = rng.uniform_int(1, 4);
  const std::int64_t out_c = rng.uniform_int(1, 4);
  const std::int64_t k = 2 * rng.uniform_int(0, 2) + 1;
  Tensor w = nn::glorot_uniform_kernel(k, k, in_c, out_c, rng);
  Tensor x(1, 6, 7, in_c);
  Tensor y(1, 6, 7, in_c);
  x.fill_uniform(rng, -1.0F, 1.0F);
  y.fill_uniform(rng, -1.0F, 1.0F);
  const float a = rng.uniform(-2.0F, 2.0F);
  const float b = rng.uniform(-2.0F, 2.0F);
  Tensor lhs = nn::conv2d(add(scale(x, a), scale(y, b)), w, nn::Padding::kSame);
  Tensor rhs = add(scale(nn::conv2d(x, w, nn::Padding::kSame), a),
                   scale(nn::conv2d(y, w, nn::Padding::kSame), b));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4F);
}

TEST_P(ConvLinearity, ConvIsLinearInWeights) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::int64_t c = rng.uniform_int(1, 4);
  Tensor w1 = nn::glorot_uniform_kernel(3, 3, c, c, rng);
  Tensor w2 = nn::glorot_uniform_kernel(3, 3, c, c, rng);
  Tensor x(1, 5, 5, c);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor lhs = nn::conv2d(x, add(w1, w2), nn::Padding::kSame);
  Tensor rhs = add(nn::conv2d(x, w1, nn::Padding::kSame), nn::conv2d(x, w2, nn::Padding::kSame));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvLinearity, ::testing::Range(0, 8));

// ---------------- collapse distributes over weight addition ------------------

class CollapseAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(CollapseAlgebra, CollapseLinearInFirstWeight) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const std::int64_t x_c = rng.uniform_int(1, 4);
  const std::int64_t p = rng.uniform_int(4, 12);
  const std::int64_t y_c = rng.uniform_int(1, 4);
  Tensor w1a = nn::glorot_uniform_kernel(3, 3, x_c, p, rng);
  Tensor w1b = nn::glorot_uniform_kernel(3, 3, x_c, p, rng);
  Tensor w2 = nn::glorot_uniform_kernel(1, 1, p, y_c, rng);
  const std::array<Tensor, 2> sum_seq{add(w1a, w1b), w2};
  const std::array<Tensor, 2> a_seq{w1a, w2};
  const std::array<Tensor, 2> b_seq{w1b, w2};
  Tensor lhs = core::collapse_conv_sequence(sum_seq);
  Tensor rhs = add(core::collapse_conv_sequence(a_seq), core::collapse_conv_sequence(b_seq));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4F);
}

TEST_P(CollapseAlgebra, CollapseCommutesWithScaling) {
  Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  Tensor w1 = nn::glorot_uniform_kernel(3, 3, 2, 8, rng);
  Tensor w2 = nn::glorot_uniform_kernel(1, 1, 8, 2, rng);
  const float s = rng.uniform(-3.0F, 3.0F);
  const std::array<Tensor, 2> scaled{scale(w1, s), w2};
  const std::array<Tensor, 2> plain{w1, w2};
  Tensor lhs = core::collapse_conv_sequence(scaled);
  Tensor rhs = scale(core::collapse_conv_sequence(plain), s);
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseAlgebra, ::testing::Range(0, 8));

// ------------- whole-network collapse across the config space ----------------

// (f, m, scale, prelu, input_residual, short_residuals, bias, expanded_mode)
using NetConfig = std::tuple<int, int, int, bool, bool, bool, bool, bool>;

class WholeNetCollapse : public ::testing::TestWithParam<NetConfig> {};

TEST_P(WholeNetCollapse, TrainingGraphEqualsDeployedNet) {
  const auto [f, m, scl, prelu, in_res, short_res, bias, expanded] = GetParam();
  core::SesrConfig cfg;
  cfg.f = f;
  cfg.m = m;
  cfg.scale = scl;
  cfg.expand = 16;
  cfg.prelu = prelu;
  cfg.input_residual = in_res;
  cfg.short_residuals = short_res;
  cfg.with_bias = bias;
  cfg.mode = expanded ? core::BlockMode::kExpanded : core::BlockMode::kCollapsedForward;
  Rng rng(99);
  core::SesrNetwork net(cfg, rng);
  core::SesrInference deployed(net);
  Rng xrng(101);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(net.forward(x, false), deployed.upscale(x)), 5e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Space, WholeNetCollapse,
    ::testing::Values(NetConfig{4, 1, 2, true, true, true, false, false},
                      NetConfig{8, 3, 2, true, true, true, false, true},
                      NetConfig{4, 2, 4, true, true, true, false, false},
                      NetConfig{4, 2, 2, false, false, true, false, false},   // hw variant
                      NetConfig{4, 2, 2, true, true, false, false, false},    // ExpandNet style
                      NetConfig{4, 2, 2, true, true, true, true, false},      // with biases
                      NetConfig{4, 2, 4, false, false, true, true, true},     // everything odd
                      NetConfig{6, 4, 2, true, false, true, false, false}));

// ------------------ metric invariances under dihedral moves ------------------

class MetricInvariance : public ::testing::TestWithParam<int> {};

TEST_P(MetricInvariance, PsnrAndSsimAreDihedralInvariant) {
  const int index = GetParam();
  Rng rng(4000 + static_cast<std::uint64_t>(index));
  Tensor a = data::synthesize_image(data::ImageFamily::kNatural, 24, 24, rng);
  Tensor b = data::synthesize_image(data::ImageFamily::kObjects, 24, 24, rng);
  const double psnr_plain = metrics::psnr(a, b);
  const double ssim_plain = metrics::ssim(a, b);
  Tensor ta = data::dihedral_transform(a, index);
  Tensor tb = data::dihedral_transform(b, index);
  EXPECT_NEAR(metrics::psnr(ta, tb), psnr_plain, 1e-9);
  EXPECT_NEAR(metrics::ssim(ta, tb), ssim_plain, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllTransforms, MetricInvariance, ::testing::Range(0, 8));

// -------------- deployment paths agree pairwise on the same net --------------

TEST(DeploymentAgreement, BatchAndTiledCoincide) {
  core::SesrConfig cfg;
  cfg.f = 6;
  cfg.m = 2;
  cfg.scale = 2;
  cfg.expand = 16;
  Rng rng(301);
  core::SesrNetwork net(cfg, rng);
  core::SesrInference deployed(net);
  Rng irng(303);
  Tensor image = data::synthesize_image(data::ImageFamily::kObjects, 36, 44, irng);
  Tensor batch = deployed.upscale(image);
  core::TilingOptions tiles;
  tiles.tile_h = 16;
  tiles.tile_w = 20;
  Tensor tiled = core::upscale_tiled(deployed, image, tiles);
  EXPECT_LT(max_abs_diff(batch, tiled), 1e-5F);
}

// ------------- tiled-inference edge cases the server dispatches --------------

// The serve layer routes arbitrary request shapes through upscale_tiled; these
// pin down the geometry corners it will hit in production.

TEST(TiledEdgeCases, ImageSmallerThanOneTileIsBitExact) {
  core::SesrConfig cfg;
  cfg.f = 6;
  cfg.m = 2;
  cfg.scale = 2;
  cfg.expand = 16;
  Rng rng(601);
  core::SesrNetwork net(cfg, rng);
  core::SesrInference deployed(net);
  Rng irng(603);
  Tensor image(1, 5, 7, 1);
  image.fill_uniform(irng, 0.0F, 1.0F);
  // Tile dims larger than the image: the grid degenerates to a single tile
  // whose clamped halo is the whole image — the exact full-frame computation.
  core::TilingOptions tiles;
  tiles.tile_h = 64;
  tiles.tile_w = 64;
  EXPECT_EQ(max_abs_diff(core::upscale_tiled(deployed, image, tiles), deployed.upscale(image)),
            0.0F);
  const auto grid = core::tile_grid(5, 7, tiles, core::receptive_field_radius(deployed));
  ASSERT_EQ(grid.size(), 1U);
  EXPECT_EQ(grid[0].hh, 5);
  EXPECT_EQ(grid[0].hw, 7);
}

TEST(TiledEdgeCases, NonDivisibleGridMatchesFullFrame) {
  core::SesrConfig cfg;
  cfg.f = 6;
  cfg.m = 2;
  cfg.scale = 2;
  cfg.expand = 16;
  Rng rng(607);
  core::SesrNetwork net(cfg, rng);
  core::SesrInference deployed(net);
  Rng irng(609);
  Tensor image(1, 13, 17, 1);
  image.fill_uniform(irng, 0.0F, 1.0F);
  // 13/5 and 17/6 both leave ragged edge tiles; exact halo must still
  // reproduce the full frame.
  core::TilingOptions tiles;
  tiles.tile_h = 5;
  tiles.tile_w = 6;
  EXPECT_LT(max_abs_diff(core::upscale_tiled(deployed, image, tiles), deployed.upscale(image)),
            1e-5F);
  // The grid covers every LR pixel exactly once.
  const auto grid = core::tile_grid(13, 17, tiles, 0);
  std::int64_t covered = 0;
  for (const auto& t : grid) covered += t.th * t.tw;
  EXPECT_EQ(covered, 13 * 17);
}

TEST(TiledEdgeCases, HaloZeroInexactnessConfinedToTileBorders) {
  core::SesrConfig cfg;
  cfg.f = 6;
  cfg.m = 2;
  cfg.scale = 2;
  cfg.expand = 16;
  Rng rng(611);
  core::SesrNetwork net(cfg, rng);
  core::SesrInference deployed(net);
  Rng irng(613);
  Tensor image(1, 16, 16, 1);
  image.fill_uniform(irng, 0.0F, 1.0F);
  core::TilingOptions tiles;
  tiles.tile_h = 8;
  tiles.tile_w = 8;
  tiles.halo = 0;
  const std::int64_t radius = core::receptive_field_radius(deployed);
  const Tensor full = deployed.upscale(image);
  const Tensor approx = core::upscale_tiled(deployed, image, tiles);
  const std::int64_t scale = cfg.scale;
  // The sharp halo=0 bound: an LR pixel whose distance to every INTERIOR tile
  // boundary is >= the receptive-field radius sees the identical input window
  // in both passes, so its HR block must match exactly. (Image borders are
  // excluded — there the clamped halo equals full-frame padding anyway.)
  std::int64_t interior_checked = 0;
  for (std::int64_t y = 0; y < 16; ++y) {
    for (std::int64_t x = 0; x < 16; ++x) {
      const std::int64_t ty = y % tiles.tile_h;
      const std::int64_t tx = x % tiles.tile_w;
      auto dist = [&](std::int64_t local, std::int64_t extent, std::int64_t origin,
                      std::int64_t image_extent) {
        std::int64_t d = std::numeric_limits<std::int64_t>::max();
        if (origin > 0) d = std::min(d, local);  // interior low edge
        if (origin + extent < image_extent) d = std::min(d, extent - 1 - local);
        return d;
      };
      const std::int64_t dy = dist(ty, tiles.tile_h, y - ty, 16);
      const std::int64_t dx = dist(tx, tiles.tile_w, x - tx, 16);
      if (std::min(dy, dx) < radius) continue;
      ++interior_checked;
      for (std::int64_t sy = 0; sy < scale; ++sy) {
        for (std::int64_t sx = 0; sx < scale; ++sx) {
          ASSERT_EQ(approx(0, y * scale + sy, x * scale + sx, 0),
                    full(0, y * scale + sy, x * scale + sx, 0))
              << "LR pixel (" << y << ", " << x << ")";
        }
      }
    }
  }
  ASSERT_GT(interior_checked, 0);
  // And the borders genuinely differ — halo=0 is an approximation, not a
  // freebie; if this ever becomes exact the overhead accounting is obsolete.
  EXPECT_GT(max_abs_diff(approx, full), 0.0F);
}

// -------------------- quantization error scales with range -------------------

class QuantError : public ::testing::TestWithParam<int> {};

TEST_P(QuantError, BoundedByHalfStep) {
  // Per-output-channel weight quantization: each channel has its own range,
  // so each channel's dequantized error stays under half of its own step.
  Rng rng(400 + static_cast<std::uint64_t>(GetParam()));
  constexpr std::int64_t kOutC = 4;
  Tensor t(3, 3, 2, kOutC);
  const std::int64_t k = t.numel() / kOutC;
  std::array<float, kOutC> range{};
  for (std::int64_t oc = 0; oc < kOutC; ++oc) {
    range[oc] = rng.uniform(0.1F, 10.0F);
    for (std::int64_t i = 0; i < k; ++i) {
      t.raw()[i * kOutC + oc] = rng.uniform(-range[oc], range[oc]);
    }
  }
  const nn::S8ConvWeights q = nn::quantize_conv_weights(t);
  for (std::int64_t oc = 0; oc < kOutC; ++oc) {
    const float step = q.scale[static_cast<std::size_t>(oc)];
    EXPECT_LE(step, range[oc] / 127.0F + 1e-6F) << "channel " << oc;
    for (std::int64_t i = 0; i < k; ++i) {
      const std::size_t at = static_cast<std::size_t>(i * kOutC + oc);
      const float back = static_cast<float>(q.values[at]) * step;
      EXPECT_LT(std::fabs(t.raw()[at] - back), step * 0.5F + 1e-6F) << "channel " << oc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, QuantError, ::testing::Range(0, 6));

// ------------------ trainer determinism under fixed seeds --------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalNetworks) {
  for (int run = 0; run < 2; ++run) {
    Rng rng_a(5);
    Rng rng_b(5);
    core::SesrNetwork a(core::sesr_m3(2), rng_a);
    core::SesrNetwork b(core::sesr_m3(2), rng_b);
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(max_abs_diff(pa[i]->value, pb[i]->value), 0.0F) << pa[i]->name;
    }
  }
}

}  // namespace
}  // namespace sesr
