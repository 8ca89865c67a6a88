// Tests for the SESR network graph and its collapsed inference form:
// shapes, whole-network collapse exactness (training graph == deployed
// VGG-like net), x4 double depth-to-space, hardware variant, checkpointing.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/macs.hpp"
#include "core/two_stage_x4.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"

namespace sesr::core {
namespace {

SesrConfig tiny_config(std::int64_t scale, BlockMode mode) {
  SesrConfig c;
  c.f = 6;
  c.m = 2;
  c.scale = scale;
  c.expand = 24;
  c.mode = mode;
  return c;
}

TEST(SesrNetwork, OutputShapeX2) {
  Rng rng(1);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  Tensor x(2, 8, 10, 1);
  Tensor y = net.forward(x, false);
  EXPECT_EQ(y.shape(), Shape(2, 16, 20, 1));
}

TEST(SesrNetwork, OutputShapeX4UsesDoubleShuffle) {
  Rng rng(2);
  SesrNetwork net(tiny_config(4, BlockMode::kCollapsedForward), rng);
  Tensor x(1, 6, 5, 1);
  Tensor y = net.forward(x, false);
  EXPECT_EQ(y.shape(), Shape(1, 24, 20, 1));
}

TEST(SesrNetwork, RejectsMultiChannelInput) {
  Rng rng(3);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  Tensor x(1, 8, 8, 3);
  EXPECT_THROW(net.forward(x, false), std::invalid_argument);
}

TEST(SesrNetwork, RejectsBadScale) {
  Rng rng(4);
  SesrConfig c = tiny_config(3, BlockMode::kExpanded);
  EXPECT_THROW(SesrNetwork(c, rng), std::invalid_argument);
}

TEST(SesrNetwork, ModesAgreeOnForward) {
  Rng rng_a(7);
  Rng rng_b(7);
  SesrNetwork a(tiny_config(2, BlockMode::kExpanded), rng_a);
  SesrNetwork b(tiny_config(2, BlockMode::kCollapsedForward), rng_b);
  Rng xrng(9);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(a.forward(x, false), b.forward(x, false)), 5e-4F);
}

TEST(SesrNetwork, ModesAgreeOnGradients) {
  Rng rng_a(11);
  Rng rng_b(11);
  SesrNetwork a(tiny_config(2, BlockMode::kExpanded), rng_a);
  SesrNetwork b(tiny_config(2, BlockMode::kCollapsedForward), rng_b);
  Rng xrng(13);
  Tensor x(1, 6, 6, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  Tensor g(1, 12, 12, 1);
  g.fill_uniform(xrng, -1.0F, 1.0F);

  a.forward(x, true);
  nn::zero_gradients(a.parameters());
  a.backward(g);
  b.forward(x, true);
  nn::zero_gradients(b.parameters());
  b.backward(g);

  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(max_abs_diff(pa[i]->grad, pb[i]->grad), 1e-2F) << pa[i]->name;
  }
}

TEST(SesrNetwork, GradientsNonZeroEverywhere) {
  Rng rng(17);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  Rng xrng(19);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  Tensor y = net.forward(x, true);
  nn::zero_gradients(net.parameters());
  Tensor g(y.shape());
  g.fill_uniform(xrng, -1.0F, 1.0F);
  net.backward(g);
  for (nn::Parameter* p : net.parameters()) {
    EXPECT_GT(max_abs(p->grad), 0.0F) << p->name << " got no gradient";
  }
}

TEST(SesrNetwork, NamedConfigsMatchPaper) {
  EXPECT_EQ(sesr_m5().m, 5);
  EXPECT_EQ(sesr_m5().f, 16);
  EXPECT_EQ(sesr_xl().f, 32);
  EXPECT_EQ(sesr_xl().m, 11);
  EXPECT_EQ(sesr_m3(4).scale, 4);
  const SesrConfig hw = hardware_variant(sesr_m5());
  EXPECT_FALSE(hw.prelu);
  EXPECT_FALSE(hw.input_residual);
  EXPECT_TRUE(sesr_m5().prelu);
}

TEST(SesrNetwork, InputResidualChangesOutput) {
  Rng rng_a(23);
  Rng rng_b(23);
  SesrConfig with = tiny_config(2, BlockMode::kCollapsedForward);
  SesrConfig without = with;
  without.input_residual = false;
  SesrNetwork a(with, rng_a);
  SesrNetwork b(without, rng_b);
  Rng xrng(29);
  Tensor x(1, 6, 6, 1);
  x.fill_uniform(xrng, 0.5F, 1.0F);  // strictly positive input
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  EXPECT_GT(max_abs_diff(ya, yb), 1e-3F);
}

TEST(SesrInference, MatchesTrainingGraphX2) {
  Rng rng(31);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  SesrInference deployed(net);
  Rng xrng(37);
  Tensor x(1, 9, 7, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(net.forward(x, false), deployed.upscale(x)), 5e-4F);
}

TEST(SesrInference, MatchesTrainingGraphX4) {
  Rng rng(41);
  SesrNetwork net(tiny_config(4, BlockMode::kExpanded), rng);
  SesrInference deployed(net);
  Rng xrng(43);
  Tensor x(1, 5, 6, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(net.forward(x, false), deployed.upscale(x)), 5e-4F);
}

TEST(SesrInference, MatchesAfterTrainingSteps) {
  // Collapse must remain exact after the weights have moved (trained state).
  Rng rng(47);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  train::Adam adam(1e-3F);
  Rng xrng(53);
  for (int step = 0; step < 5; ++step) {
    Tensor x(1, 8, 8, 1);
    x.fill_uniform(xrng, 0.0F, 1.0F);
    Tensor target(1, 16, 16, 1);
    target.fill_uniform(xrng, 0.0F, 1.0F);
    nn::zero_gradients(net.parameters());
    Tensor y = net.forward(x, true);
    auto loss = train::l1_loss(y, target);
    net.backward(loss.grad);
    adam.step(net.parameters());
  }
  SesrInference deployed(net);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(net.forward(x, false), deployed.upscale(x)), 5e-4F);
}

TEST(SesrInference, HardwareVariantUsesRelu) {
  Rng rng(59);
  SesrConfig cfg = hardware_variant(tiny_config(2, BlockMode::kCollapsedForward));
  SesrNetwork net(cfg, rng);
  SesrInference deployed(net);
  Rng xrng(61);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_LT(max_abs_diff(net.forward(x, false), deployed.upscale(x)), 5e-4F);
}

TEST(SesrInference, ParameterCountMatchesFormula) {
  Rng rng(67);
  SesrNetwork net(sesr_m5(2), rng);
  SesrInference deployed(net);
  EXPECT_EQ(deployed.parameter_count(), 13520);
  EXPECT_EQ(net.collapsed_parameter_count(), 13520);
}

TEST(SesrInference, CheckpointRoundTrip) {
  Rng rng(71);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  SesrInference deployed(net);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sesr_inference.ckpt").string();
  save_tensors(path, deployed.to_tensor_map());
  SesrInference restored(load_tensors(path));
  EXPECT_EQ(restored.config().f, deployed.config().f);
  EXPECT_EQ(restored.config().m, deployed.config().m);
  Rng xrng(73);
  Tensor x(1, 8, 8, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  EXPECT_EQ(max_abs_diff(restored.upscale(x), deployed.upscale(x)), 0.0F);
  std::filesystem::remove(path);
}

// A stacked (B, H, W, 1) upscale is bit-identical, sample by sample, to B
// single-frame calls: the conv kernels stripe each image independently with
// batch-invariant reduction orders.
TEST(BatchedUpscale, StackedBatchBitIdenticalToSingleFrames) {
  Rng rng(11);
  const SesrInference inference(SesrNetwork(tiny_config(2, BlockMode::kCollapsedForward), rng));
  std::vector<Tensor> frames;
  Tensor batched(5, 12, 14, 1);
  for (std::int64_t i = 0; i < 5; ++i) {
    Tensor frame(1, 12, 14, 1);
    frame.fill_uniform(rng, 0.0F, 1.0F);
    set_batch(batched, i, frame);
    frames.push_back(std::move(frame));
  }
  const Tensor out = inference.upscale(batched);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(max_abs_diff(slice_batch(out, i), inference.upscale(frames[i])), 0.0F)
        << "sample " << i;
  }
}

TEST(TwoStageX4, OutputShape) {
  Rng rng(81);
  SesrTwoStageX4 net(6, 2, 24, rng);
  Tensor x(1, 7, 9, 1);
  Tensor y = net.forward(x, false);
  EXPECT_EQ(y.shape(), Shape(1, 28, 36, 1));
}

TEST(TwoStageX4, ParameterAndMacAccounting) {
  Rng rng(83);
  SesrTwoStageX4 net(16, 5, 256, rng);
  // body: 25*16 + 5*9*256 + head1 25*16*64 + head2 25*16*4.
  const std::int64_t expected =
      25 * 16 + 5 * 9 * 16 * 16 + 25 * 16 * 64 + 25 * 16 * 4;
  EXPECT_EQ(net.collapsed_parameter_count(), expected);
  // MACs: body+head1 at 1x, head2 at 2x resolution.
  const std::int64_t body = 25 * 16 + 5 * 9 * 16 * 16 + 25 * 16 * 64;
  EXPECT_EQ(net.collapsed_macs(10, 20), 10 * 20 * body + (2 * 10) * (2 * 20) * (25 * 16 * 4));
  // More MACs than the paper's one-shot head — the cost the paper avoids.
  EXPECT_GT(net.collapsed_macs(180, 320), core::sesr_macs(core::sesr_m5(4), 180, 320).macs);
}

TEST(TwoStageX4, GradientsFlowEverywhere) {
  Rng rng(85);
  SesrTwoStageX4 net(4, 1, 16, rng);
  Rng xrng(87);
  Tensor x(1, 6, 6, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  Tensor y = net.forward(x, true);
  nn::zero_gradients(net.parameters());
  Tensor g(y.shape());
  g.fill_uniform(xrng, -1.0F, 1.0F);
  net.backward(g);
  for (nn::Parameter* p : net.parameters()) {
    EXPECT_GT(max_abs(p->grad), 0.0F) << p->name;
  }
}

TEST(TwoStageX4, TrainsWithSharedHarness) {
  Rng rng(89);
  SesrTwoStageX4 net(4, 1, 16, rng);
  train::Adam adam(1e-3F);
  Rng xrng(91);
  float first = -1.0F;
  float last = 0.0F;
  for (int step = 0; step < 30; ++step) {
    Tensor x(1, 6, 6, 1);
    x.fill_uniform(xrng, 0.0F, 1.0F);
    Tensor target(1, 24, 24, 1);
    for (std::int64_t yy = 0; yy < 24; ++yy) {
      for (std::int64_t xx = 0; xx < 24; ++xx) target(0, yy, xx, 0) = x(0, yy / 4, xx / 4, 0);
    }
    nn::zero_gradients(net.parameters());
    Tensor y = net.forward(x, true);
    auto loss = train::l1_loss(y, target);
    net.backward(loss.grad);
    adam.step(net.parameters());
    if (first < 0.0F) first = loss.value;
    last = loss.value;
  }
  EXPECT_LT(last, first);
}

TEST(SesrInference, MissingConfigThrows) {
  TensorMap empty;
  EXPECT_THROW(SesrInference{empty}, std::runtime_error);
}

// A valid checkpoint of a small net, for the loader's fail-closed tests.
TensorMap small_checkpoint() {
  Rng rng(91);
  SesrNetwork net(tiny_config(2, BlockMode::kCollapsedForward), rng);
  return SesrInference(net).to_tensor_map();
}

TEST(SesrInference, BadCheckpointConfigFailsClosed) {
  ASSERT_NO_THROW(SesrInference{small_checkpoint()});
  // Config slots: 0 f, 1 m, 2 scale, 3 expand, 4 prelu, 5 input_residual,
  // 6 with_bias.
  const std::pair<int, float> bad[] = {
      {2, 3.0F},    // scale 3 used to load, then fail in upscale
      {1, -2.0F},   // m = -2 used to load with zero convs
      {2, 1e30F},   // float -> int64 cast out of range is UB
      {2, std::numeric_limits<float>::quiet_NaN()},
      {0, 0.0F},    // f must be >= 1
      {0, 6.5F},    // non-integral
      {1, 1e6F},    // absurd depth
      {3, -1.0F},   // negative expand
      {4, 2.0F},    // flags are 0 or 1
  };
  for (const auto& [slot, value] : bad) {
    SCOPED_TRACE("slot " + std::to_string(slot) + " = " + std::to_string(value));
    TensorMap map = small_checkpoint();
    map.at("__config").raw()[slot] = value;
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
}

TEST(SesrInference, MisShapedCheckpointTensorsFailClosed) {
  {
    // A middle conv whose kernel disagrees with the config (f=6, 3x3).
    TensorMap map = small_checkpoint();
    map.at("conv1.weight") = Tensor(3, 3, 6, 5);
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
  {
    // Right element count, wrong layout.
    TensorMap map = small_checkpoint();
    map.at("conv0.weight") = Tensor(5, 5, 6, 1);
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
  {
    // The last conv must produce scale^2 channels.
    TensorMap map = small_checkpoint();
    map.at("conv3.weight") = Tensor(5, 5, 6, 16);
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
  {
    // A PReLU slope vector shorter than f.
    TensorMap map = small_checkpoint();
    map.at("act1.alpha") = Tensor(1, 1, 1, 5);
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
  {
    // A config claiming one more block than the tensors hold.
    TensorMap map = small_checkpoint();
    map.at("__config").raw()[1] = 3.0F;
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
}

// small_checkpoint() with int8 state: activation scales and a hybrid plan.
TensorMap calibrated_checkpoint() {
  Rng rng(93);
  SesrInference net(SesrNetwork(tiny_config(2, BlockMode::kCollapsedForward), rng));
  Tensor frame(1, 10, 10, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  net.calibrate_int8({frame});
  net.set_hybrid_plan(std::vector<LayerPrecision>(net.convolutions().size(),
                                                  LayerPrecision::kInt8));
  return net.to_tensor_map();
}

TEST(SesrInference, BadInt8ActivationScaleFailsClosed) {
  ASSERT_NO_THROW(SesrInference{calibrated_checkpoint()});
  // Each of these used to load; a zero or NaN scale then cast NaN to int8
  // (undefined behaviour) when an int8 frame quantized its activations.
  const float bad[] = {0.0F, -0.5F, std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float value : bad) {
    SCOPED_TRACE("scale = " + std::to_string(value));
    TensorMap map = calibrated_checkpoint();
    map.at("__int8.act_scale").raw()[1] = value;
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
}

TEST(SesrInference, BadHybridPlanEntryFailsClosed) {
  ASSERT_NO_THROW(SesrInference{calibrated_checkpoint()});
  // Plan entries are 0 (fp16) or 1 (int8); anything else used to load as int8.
  const float bad[] = {2.0F, 0.5F, -1.0F, std::numeric_limits<float>::quiet_NaN()};
  for (const float value : bad) {
    SCOPED_TRACE("plan entry = " + std::to_string(value));
    TensorMap map = calibrated_checkpoint();
    map.at("__int8.plan").raw()[0] = value;
    EXPECT_THROW(SesrInference{map}, std::runtime_error);
  }
}

}  // namespace
}  // namespace sesr::core
