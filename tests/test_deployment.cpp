// Tests for the deployment extensions: functional tiled inference
// (Section 5.6 boundary correctness), the int8 conv against float (the NPU
// execution premise; the int8 network is covered in test_int8).
#include <gtest/gtest.h>

#include <cmath>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "data/synthetic.hpp"
#include "metrics/psnr.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/init.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core {
namespace {

SesrConfig tiny(std::int64_t scale = 2) {
  SesrConfig c;
  c.f = 6;
  c.m = 2;
  c.scale = scale;
  c.expand = 24;
  return c;
}

TEST(TiledInference, ReceptiveFieldRadius) {
  Rng rng(1);
  SesrNetwork net(sesr_m5(2), rng);
  SesrInference deployed(net);
  // Two 5x5 convs (radius 2 each) + five 3x3 convs (radius 1 each) = 9.
  EXPECT_EQ(receptive_field_radius(deployed), 9);
}

TEST(TiledInference, ExactWithFullHalo) {
  Rng rng(2);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(3);
  Tensor image = data::synthesize_image(data::ImageFamily::kUrban, 40, 56, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  options.halo = -1;  // exact
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_EQ(tiled.shape(), full.shape());
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, ExactWithUnevenTiles) {
  // Image dims not divisible by the tile size: edge tiles shrink.
  Rng rng(4);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(5);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 34, 46, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 15;
  options.tile_w = 20;
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, ExactForX4) {
  Rng rng(6);
  SesrNetwork net(tiny(4), rng);
  SesrInference deployed(net);
  Rng irng(7);
  Tensor image = data::synthesize_image(data::ImageFamily::kObjects, 32, 32, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 12;
  options.tile_w = 12;
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, TruncatedHaloDegradesGracefully) {
  Rng rng(8);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(9);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 32, 32, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  options.halo = 1;  // smaller than the receptive field
  Tensor tiled = upscale_tiled(deployed, image, options);
  const float err = max_abs_diff(tiled, full);
  EXPECT_GT(err, 0.0F);          // not exact ...
  const double psnr = metrics::psnr(tiled, full);
  EXPECT_GT(psnr, 20.0);         // ... but close (seam artifacts only)
}

TEST(TiledInference, OverheadAccounting) {
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  // halo 0: no overhead at all.
  EXPECT_DOUBLE_EQ(tiling_compute_overhead(64, 64, options, 0), 1.0);
  // halo 4 on 16x16 tiles: interior tiles are 24x24 -> up to 2.25x.
  const double overhead = tiling_compute_overhead(64, 64, options, 4);
  EXPECT_GT(overhead, 1.5);
  EXPECT_LT(overhead, 2.25 + 1e-9);
}

TEST(TiledInference, ArenaBoundedByTileNotFrame) {
  // Tiling is the bounded-memory deployment: the plan's activation arena is
  // sized by the largest haloed tile, so a 4x taller frame with the same
  // tile geometry retains exactly the same bytes, and far fewer than a
  // full-frame pass over the tall frame.
  Rng rng(67);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  options.halo = receptive_field_radius(deployed);
  Rng irng(69);
  // Three tile rows and columns: both frames contain an interior tile, the
  // largest haloed crop of the grid.
  const Tensor short_img = data::synthesize_image(data::ImageFamily::kNatural, 48, 48, irng);
  const Tensor tall_img = data::synthesize_image(data::ImageFamily::kNatural, 192, 48, irng);
  (void)upscale_tiled(deployed, short_img, options);
  const std::int64_t arena_short = deployed.plan_arena_bytes();
  (void)upscale_tiled(deployed, tall_img, options);
  const std::int64_t arena_tall = deployed.plan_arena_bytes();
  EXPECT_GT(arena_short, 0);
  EXPECT_EQ(arena_tall, arena_short) << "arena grew with frame height";
  (void)deployed.upscale(tall_img);
  EXPECT_LT(arena_tall, deployed.plan_arena_bytes());
}

TEST(TiledInference, RejectsBadInputs) {
  Rng rng(10);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Tensor batch(2, 16, 16, 1);
  EXPECT_THROW(upscale_tiled(deployed, batch, {}), std::invalid_argument);
  Tensor rgb(1, 16, 16, 3);
  EXPECT_THROW(upscale_tiled(deployed, rgb, {}), std::invalid_argument);
  TilingOptions bad;
  bad.tile_h = 0;
  Tensor ok(1, 16, 16, 1);
  EXPECT_THROW(upscale_tiled(deployed, ok, bad), std::invalid_argument);
}

// The served int8 conv (per-channel s8 weights, max-abs activation scale) is
// within quantization noise of the float conv.
TEST(Quantize, Int8ConvMatchesFloatWithinQuantNoise) {
  Rng rng(13);
  Tensor x(1, 8, 8, 4);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::glorot_uniform_kernel(3, 3, 4, 6, rng);
  Tensor reference = nn::conv2d(x, w, nn::Padding::kSame);
  Tensor quantized = nn::conv2d_s8(x, max_abs(x) / 127.0F, nn::quantize_conv_weights(w), nullptr,
                                   nn::Epilogue{}, nn::Padding::kSame);
  EXPECT_EQ(quantized.shape(), reference.shape());
  // Error should be small relative to the signal.
  EXPECT_LT(max_abs_diff(reference, quantized), 0.05F * std::max(1.0F, max_abs(reference)));
}

TEST(Quantize, WorksOnHardwareVariant) {
  // ReLU + no input residual: the configuration that actually ships (Table 3).
  Rng rng(101);
  SesrNetwork net(hardware_variant(tiny(2)), rng);
  SesrInference deployed(net);
  Rng irng(103);
  deployed.calibrate_int8({data::synthesize_image(data::ImageFamily::kNatural, 32, 32, irng)});
  Tensor image = data::synthesize_image(data::ImageFamily::kUrban, 32, 32, irng);
  Tensor a = deployed.upscale(image);
  deployed.set_precision(InferencePrecision::kInt8);
  Tensor b = deployed.upscale(image);
  EXPECT_EQ(b.shape(), a.shape());
  EXPECT_GT(metrics::psnr(b, a), 30.0);
}

TEST(Quantize, ConvRejectsChannelMismatch) {
  Rng rng(107);
  Tensor x(1, 4, 4, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::glorot_uniform_kernel(3, 3, 2, 2, rng);
  EXPECT_THROW(nn::conv2d_s8(x, 1.0F / 127.0F, nn::quantize_conv_weights(w), nullptr,
                             nn::Epilogue{}, nn::Padding::kSame),
               std::invalid_argument);
}

}  // namespace
}  // namespace sesr::core
