// Tests for the execution-plan compiler: pass-pipeline structure, the
// liveness memory planner's no-alias property, bitwise equivalence of the
// planned executor against the direct per-layer path (including stale-arena
// reuse, plan-cache eviction and the int8 u8 carrier's padded images across
// shapes), and on-demand arena growth to exactly a plan's peak bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/plan/execution_plan.hpp"
#include "core/plan/memory_planner.hpp"
#include "core/plan/network_ir.hpp"
#include "core/plan/passes.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core::plan {
namespace {

Tensor random_frame(Rng& rng, std::int64_t n, std::int64_t h, std::int64_t w) {
  Tensor t(n, h, w, 1);
  t.fill_uniform(rng, 0.0F, 1.0F);
  return t;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);
}

SesrConfig make_config(std::int64_t m, std::int64_t scale, bool prelu, bool input_residual,
                       bool with_bias, std::int64_t f = 8) {
  SesrConfig config;
  config.f = f;
  config.m = m;
  config.scale = scale;
  config.expand = 16;
  config.prelu = prelu;
  config.input_residual = input_residual;
  config.with_bias = with_bias;
  return config;
}

// A calibrated inference with a hybrid plan, so every precision is settable.
SesrInference make_inference(const SesrConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  Rng init = rng.fork();
  const SesrNetwork network(config, init);
  SesrInference inference(network);
  inference.calibrate_int8({random_frame(rng, 1, 12, 12)});
  std::vector<LayerPrecision> plan(inference.convolutions().size(), LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = LayerPrecision::kInt8;
  inference.set_hybrid_plan(std::move(plan));
  return inference;
}

constexpr InferencePrecision kAllPrecisions[] = {
    InferencePrecision::kFp32, InferencePrecision::kFp16, InferencePrecision::kInt8,
    InferencePrecision::kHybrid};

// ------------------------------------------------------------ memory planner

TEST(MemoryPlanner, SimultaneouslyLiveValuesNeverShareBytes) {
  Rng rng(0x51ab7e01);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t n = rng.uniform_int(1, 14);
    const std::int64_t horizon = rng.uniform_int(0, 12);
    std::vector<ValueInterval> intervals(static_cast<std::size_t>(n));
    std::int64_t total = 0;
    for (ValueInterval& v : intervals) {
      v.def = static_cast<int>(rng.uniform_int(0, horizon));
      v.last_use = v.def + static_cast<int>(rng.uniform_int(0, horizon - v.def));
      v.elements = rng.bernoulli(0.15) ? 0 : rng.uniform_int(1, 96);
      total += v.elements;
    }
    const MemoryPlan plan = plan_memory(intervals);
    // Fragmentation never exceeds packing everything disjointly.
    EXPECT_LE(plan.arena_elements, total);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      if (intervals[i].elements == 0) continue;
      EXPECT_LE(plan.offsets[i] + intervals[i].elements, plan.arena_elements);
      for (std::size_t j = i + 1; j < intervals.size(); ++j) {
        if (intervals[j].elements == 0) continue;
        if (!intervals_overlap(intervals[i], intervals[j])) continue;
        const bool disjoint =
            plan.offsets[i] + intervals[i].elements <= plan.offsets[j] ||
            plan.offsets[j] + intervals[j].elements <= plan.offsets[i];
        EXPECT_TRUE(disjoint) << "trial " << trial << ": values " << i << " and " << j
                              << " are live together but share arena bytes";
      }
    }
  }
}

TEST(MemoryPlanner, ArenaCoversPeakSimultaneousFootprint) {
  // Two values alive at once plus one that dies first: the survivor may reuse
  // the dead value's bytes, the concurrent one may not.
  std::vector<ValueInterval> intervals = {
      {/*elements=*/10, /*def=*/0, /*last_use=*/1},   // dies at step 1
      {/*elements=*/10, /*def=*/0, /*last_use=*/3},   // pinned across everything
      {/*elements=*/10, /*def=*/2, /*last_use=*/3},   // may reuse value 0's bytes
  };
  const MemoryPlan plan = plan_memory(intervals);
  EXPECT_EQ(plan.arena_elements, 20);
  EXPECT_EQ(plan.offsets[0], plan.offsets[2]);
}

TEST(MemoryPlanner, RejectsBackwardInterval) {
  std::vector<ValueInterval> intervals = {{/*elements=*/4, /*def=*/3, /*last_use=*/1}};
  EXPECT_THROW(plan_memory(intervals), std::invalid_argument);
}

// ------------------------------------------------------------- pass pipeline

TEST(Passes, SesrGraphFusesToConvsPlusOneShuffle) {
  for (const std::int64_t m : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                               std::int64_t{5}}) {
    for (const std::int64_t scale : {std::int64_t{2}, std::int64_t{4}}) {
      for (const bool input_residual : {false, true}) {
        const SesrConfig config = make_config(m, scale, true, input_residual, false);
        const hw::NetworkIr ir = hw::sesr_ir(config, 16, 20);
        const std::vector<PlanOp> ops = lower_and_fuse(ir);
        // Every activation, residual add, and chained shuffle stage fuses
        // away: m+2 convs plus exactly one depth-to-space survive.
        ASSERT_EQ(ops.size(), static_cast<std::size_t>(m + 3))
            << "m=" << m << " scale=" << scale;
        std::int64_t shuffle_factor = 1;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const PlanOp& op = ops[i];
          if (i + 1 < ops.size()) {
            EXPECT_EQ(op.kind, hw::OpKind::kConv);
          } else {
            EXPECT_EQ(op.kind, hw::OpKind::kDepthToSpace);
            for (const std::int64_t b : op.blocks) shuffle_factor *= b;
          }
          if (op.kind == hw::OpKind::kConv && i + 2 < ops.size()) {
            EXPECT_GE(op.act_index, 0) << "conv step " << i << " lost its fused activation";
          }
        }
        EXPECT_EQ(shuffle_factor, scale);
        // The long (blue) residual lands fused on the last feature conv; the
        // input (black) residual on the final conv when configured.
        EXPECT_NE(ops[static_cast<std::size_t>(m)].skip, kNoValue);
        const PlanOp& last_conv = ops[static_cast<std::size_t>(m + 1)];
        EXPECT_LT(last_conv.act_index, 0);
        EXPECT_EQ(last_conv.skip, input_residual ? kInputValue : kNoValue);
      }
    }
  }
}

TEST(Passes, ResidualSkipOntoOwnProducerBecomesSelfSkip) {
  // m = 0: the long residual's source is the same conv it fuses into; the
  // fused op must reference its own (renamed) output, never a dangling id.
  const SesrConfig config = make_config(0, 2, false, false, false);
  const std::vector<PlanOp> ops = lower_and_fuse(hw::sesr_ir(config, 8, 8));
  ASSERT_GE(ops.size(), 1U);
  EXPECT_EQ(ops[0].skip, ops[0].output);
}

// ------------------------------------------------------------ compiled plans

TEST(ExecutionPlan, LiveValuesDisjointForRandomConfigsAndPrecisions) {
  Rng rng(0xc0ffee11);
  for (int trial = 0; trial < 40; ++trial) {
    const SesrConfig config =
        make_config(rng.uniform_int(0, 3), rng.bernoulli(0.5) ? 2 : 4, rng.bernoulli(0.5),
                    rng.bernoulli(0.5), rng.bernoulli(0.5));
    SesrInference net = make_inference(config, 0x1000 + static_cast<std::uint64_t>(trial));
    net.set_precision(kAllPrecisions[rng.uniform_int(0, 3)]);
    const ExecutionPlan plan =
        ExecutionPlan::compile(net, rng.uniform_int(4, 20), rng.uniform_int(4, 20));
    const std::vector<PlanValue>& values = plan.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const PlanValue& a = values[i];
      if (a.external || a.elements == 0) continue;
      const std::int64_t arena = a.space == ValueSpace::kFloat  ? plan.float_arena_elements()
                                 : a.space == ValueSpace::kHalf ? plan.half_arena_elements()
                                                                : plan.u8_arena_bytes();
      EXPECT_LE(a.offset + a.elements, arena);
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        const PlanValue& b = values[j];
        if (b.external || b.elements == 0 || b.space != a.space) continue;
        if (a.def > b.last_use || b.def > a.last_use) continue;  // never live together
        const bool disjoint =
            a.offset + a.elements <= b.offset || b.offset + b.elements <= a.offset;
        EXPECT_TRUE(disjoint) << "trial " << trial << ": values " << i << " and " << j;
      }
    }
  }
}

TEST(ExecutionPlan, PeakBytesAreWhatOneRunOfThePlanHolds) {
  const SesrInference base = make_inference(make_config(2, 2, true, true, false), 7);
  for (const InferencePrecision precision : kAllPrecisions) {
    SCOPED_TRACE(static_cast<int>(precision));
    for (const auto& [h, w] : {std::pair<std::int64_t, std::int64_t>{16, 16}, {24, 40}}) {
      SesrInference net = base;  // a fresh executor: arenas start empty
      net.set_precision(precision);
      const ExecutionPlan plan = ExecutionPlan::compile(net, h, w);
      EXPECT_EQ(plan.peak_activation_bytes(),
                plan.float_arena_elements() * 4 + plan.half_arena_elements() * 2 +
                    plan.u8_arena_bytes());
      EXPECT_GT(plan.float_arena_elements(), 0);
      Rng rng(8);
      (void)net.upscale(random_frame(rng, 1, h, w));
      EXPECT_EQ(net.plan_arena_bytes(), plan.peak_activation_bytes());
    }
  }
}

TEST(ExecutionPlan, PlannedArenaBeatsSumOfLayerOutputs) {
  // The planner's whole point: the packed arena is far below materializing
  // every fused step's output at once (the direct path's steady footprint).
  SesrInference net = make_inference(make_config(5, 2, false, true, false), 11);
  const ExecutionPlan plan = ExecutionPlan::compile(net, 32, 32);
  std::int64_t direct_sum = 0;
  for (const PlanStep& step : plan.steps()) direct_sum += step.op.output_elements();
  EXPECT_LE(plan.float_arena_elements() * 2, direct_sum);
}

TEST(ExecutionPlan, EveryConvStepCarriesItsPrecisionsKernel) {
  // Precision is bound per conv step at compile time; the executor reads
  // nothing else. Check each precision's binding, staging and rounding.
  SesrInference net = make_inference(make_config(2, 2, true, true, true), 13);
  const std::vector<LayerPrecision>& layers = net.hybrid_plan();
  for (const InferencePrecision precision : kAllPrecisions) {
    SCOPED_TRACE("precision " + std::to_string(static_cast<int>(precision)));
    net.set_precision(precision);
    const ExecutionPlan plan = ExecutionPlan::compile(net, 9, 11);
    const auto space = [&](int v) { return plan.values()[static_cast<std::size_t>(v)].space; };
    const int n_convs = static_cast<int>(net.convolutions().size());
    int convs_seen = 0;
    for (const PlanStep& step : plan.steps()) {
      if (step.op.kind != hw::OpKind::kConv) {
        EXPECT_EQ(step.stage, kNoValue);
        continue;
      }
      const int i = step.op.conv_index;
      const bool last = i == n_convs - 1;
      ++convs_seen;
      switch (precision) {
        case InferencePrecision::kFp32:
          EXPECT_EQ(step.kernel, ConvKernel::kFp32);
          EXPECT_EQ(step.stage, kNoValue);
          EXPECT_FALSE(step.round_output);
          EXPECT_EQ(space(step.op.output), ValueSpace::kFloat);
          EXPECT_EQ(step.requant_conv, -1);
          break;
        case InferencePrecision::kInt8:
          EXPECT_EQ(step.kernel, ConvKernel::kInt8);
          EXPECT_EQ(step.stage, kNoValue);
          EXPECT_FALSE(step.round_output);
          // The middle convs carry u8 images to the next conv; conv 0's
          // output stays float for the long residual, the last one for the
          // float tail.
          if (i == 0 || last) {
            EXPECT_EQ(space(step.op.output), ValueSpace::kFloat);
            EXPECT_EQ(step.requant_conv, -1);
          } else {
            EXPECT_EQ(space(step.op.output), ValueSpace::kU8);
            EXPECT_EQ(step.requant_conv, i + 1);
            // The reader's whole image, over-read slack included, is the
            // value's own: no value live at the same step overlaps it.
            const nn::S8ImageLayout layout = nn::s8_image_layout(
                step.op.out_h(), step.op.out_w(),
                net.s8_weights()[static_cast<std::size_t>(i + 1)], nn::Padding::kSame);
            EXPECT_GE(plan.values()[static_cast<std::size_t>(step.op.output)].elements,
                      layout.bytes(1));
          }
          if (i == 0) {
            EXPECT_EQ(step.op.input, kInputValue);
          } else {
            EXPECT_EQ(space(step.op.input), i >= 2 ? ValueSpace::kU8 : ValueSpace::kFloat);
          }
          break;
        case InferencePrecision::kFp16:
          EXPECT_EQ(step.kernel, last ? ConvKernel::kFp16ToFloat : ConvKernel::kFp16);
          EXPECT_EQ(space(step.op.input), ValueSpace::kHalf);
          EXPECT_EQ(space(step.op.output), last ? ValueSpace::kFloat : ValueSpace::kHalf);
          EXPECT_FALSE(step.round_output);
          if (i == 0) {
            // The input is rounded to binary16 once, at the first conv.
            EXPECT_EQ(step.stage_from, kInputValue);
            EXPECT_EQ(step.stage, step.op.input);
          } else if (last) {
            // The input residual adds the rounded input, widened to float.
            ASSERT_TRUE(step.input_residual);
            EXPECT_EQ(step.stage, step.op.skip);
            EXPECT_EQ(space(step.stage_from), ValueSpace::kHalf);
            EXPECT_EQ(space(step.stage), ValueSpace::kFloat);
          } else {
            EXPECT_EQ(step.stage, kNoValue);
          }
          break;
        case InferencePrecision::kHybrid:
          if (layers[static_cast<std::size_t>(i)] == LayerPrecision::kInt8) {
            EXPECT_EQ(step.kernel, ConvKernel::kInt8);
            EXPECT_EQ(step.stage, kNoValue);
            EXPECT_FALSE(step.round_output);
          } else {
            // fp16 layers stage the fp32 carrier through binary16 and round
            // their stored output once (all but the last conv).
            EXPECT_EQ(step.kernel, ConvKernel::kFp16ToFloat);
            ASSERT_NE(step.stage, kNoValue);
            EXPECT_EQ(step.op.input, step.stage);
            EXPECT_EQ(space(step.stage), ValueSpace::kHalf);
            EXPECT_EQ(step.round_output, !last);
          }
          // No two int8 layers are adjacent in this plan: no u8 carrier.
          EXPECT_EQ(space(step.op.output), ValueSpace::kFloat);
          EXPECT_EQ(step.requant_conv, -1);
          break;
      }
    }
    EXPECT_EQ(convs_seen, n_convs);
  }
}

TEST(ExecutionPlan, AllInt8HybridCompilesToTheInt8Steps) {
  SesrInference net = make_inference(make_config(2, 4, true, true, true), 17);
  net.set_precision(InferencePrecision::kInt8);
  const ExecutionPlan int8 = ExecutionPlan::compile(net, 8, 12);
  net.set_hybrid_plan(std::vector<LayerPrecision>(net.convolutions().size(),
                                                  LayerPrecision::kInt8));
  net.set_precision(InferencePrecision::kHybrid);
  const ExecutionPlan hybrid = ExecutionPlan::compile(net, 8, 12);
  ASSERT_EQ(hybrid.steps().size(), int8.steps().size());
  for (std::size_t s = 0; s < int8.steps().size(); ++s) {
    const PlanStep& a = int8.steps()[s];
    const PlanStep& b = hybrid.steps()[s];
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.op.input, b.op.input);
    EXPECT_EQ(a.op.skip, b.op.skip);
    EXPECT_EQ(a.op.output, b.op.output);
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.round_output, b.round_output);
    EXPECT_EQ(a.requant_conv, b.requant_conv);
    EXPECT_EQ(a.temps, b.temps);
  }
  ASSERT_EQ(hybrid.values().size(), int8.values().size());
  for (std::size_t v = 0; v < int8.values().size(); ++v) {
    EXPECT_EQ(hybrid.values()[v].offset, int8.values()[v].offset);
    EXPECT_EQ(hybrid.values()[v].space, int8.values()[v].space);
  }
  EXPECT_EQ(hybrid.float_arena_elements(), int8.float_arena_elements());
  EXPECT_EQ(hybrid.u8_arena_bytes(), int8.u8_arena_bytes());
  EXPECT_GT(int8.u8_arena_bytes(), 0);
  EXPECT_EQ(hybrid.half_arena_elements(), 0);
}

// ---------------------------------------------------------- planned executor

TEST(PlannedExecutor, BitIdenticalToDirectAllPrecisions) {
  SesrInference planned = make_inference(make_config(2, 2, true, true, true), 21);
  Rng rng(22);
  const Tensor frame = random_frame(rng, 1, 10, 14);
  const Tensor batch = random_frame(rng, 3, 10, 14);
  for (const InferencePrecision precision : kAllPrecisions) {
    planned.set_precision(precision);
    expect_bitwise(planned.upscale(frame), planned.upscale_direct(frame));
    expect_bitwise(planned.upscale(batch), planned.upscale_direct(batch));
  }
}

TEST(PlannedExecutor, StaleArenaBytesNeverLeakIntoSmallerFrames) {
  // Run a large frame first so the arena holds stale activations, then a
  // small one: any offset bug that reads bytes the small plan never wrote
  // would surface as a bitwise mismatch against the fresh direct path.
  SesrInference planned = make_inference(make_config(1, 4, true, true, false), 31);
  Rng rng(32);
  for (const InferencePrecision precision : kAllPrecisions) {
    planned.set_precision(precision);
    (void)planned.upscale(random_frame(rng, 1, 24, 24));
    const Tensor small = random_frame(rng, 1, 5, 3);
    expect_bitwise(planned.upscale(small), planned.upscale_direct(small));
  }
}

TEST(PlannedExecutor, PlanCacheEvictionRecompilesCorrectly) {
  // More distinct shapes than the bounded plan cache holds: the comparison
  // shape is compiled, evicted, and recompiled — all bit-identical.
  SesrInference planned = make_inference(make_config(1, 2, false, true, false), 41);
  Rng rng(42);
  const Tensor probe = random_frame(rng, 1, 9, 9);
  const Tensor first = planned.upscale(probe);
  for (std::int64_t i = 0; i < 12; ++i) {
    (void)planned.upscale(random_frame(rng, 1, 4 + i, 4));
  }
  const Tensor recompiled = planned.upscale(probe);
  expect_bitwise(recompiled, first);
  expect_bitwise(recompiled, planned.upscale_direct(probe));
}

TEST(PlannedExecutor, TiledUpscaleRunsThroughThePlan) {
  // Exact-halo tiles run through the plan and must reproduce the full-frame
  // reference: tiling and the plan checked together.
  SesrInference planned = make_inference(make_config(2, 2, true, true, false), 51);
  Rng rng(52);
  const Tensor frame = random_frame(rng, 1, 20, 17);
  TilingOptions options;
  options.tile_h = 7;
  options.tile_w = 6;
  options.halo = receptive_field_radius(planned);
  expect_bitwise(upscale_tiled(planned, frame, options), planned.upscale_direct(frame));
}

TEST(PlannedExecutor, Int8ImagesRewriteTheirBordersOnEveryShape) {
  // The u8 carrier's padded images live in the shared arena: the shapes'
  // cached plans reuse one another's bytes, and each geometry's border lands
  // on another's interior. A step that trusted a border from an earlier run
  // would read a stale byte here.
  SesrInference net = make_inference(make_config(5, 2, true, true, true, 16), 71);
  net.set_precision(InferencePrecision::kInt8);
  Rng rng(72);
  const std::pair<std::int64_t, std::int64_t> shapes[] = {{64, 64}, {37, 53}, {96, 160}, {64, 64}};
  for (const auto& [h, w] : shapes) {
    SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w));
    const Tensor frame = random_frame(rng, 1, h, w);
    const Tensor got = net.upscale(frame);
    expect_bitwise(got, net.upscale_direct(frame));
    SesrInference fresh = net;  // copies share no executor state
    expect_bitwise(got, fresh.upscale(frame));
  }
}

TEST(PlannedExecutor, Int8SweepMatchesDirectBitwise) {
  // Every width 1-40 and height 1-9 (each kernel tile remainder, images
  // narrower and shorter than the 5x5 kernels), with and without middle
  // blocks (m = 0 keeps every value float: its residual is a self-skip), f 8
  // and 16 (a partial and a full 16-channel store), batch 1 and 2, and one
  // NaN input pixel, against the fp32-carrier direct path.
  std::uint64_t seed = 80;
  for (const std::int64_t m : {0, 1, 5}) {
    for (const std::int64_t f : {8, 16}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " f=" + std::to_string(f));
      SesrInference net = make_inference(make_config(m, 2, true, true, true, f), seed++);
      net.set_precision(InferencePrecision::kInt8);
      Rng rng(seed++);
      for (std::int64_t h = 1; h <= 9; ++h) {
        for (std::int64_t w = 1; w <= 40; ++w) {
          for (const std::int64_t batch : {1, 2}) {
            Tensor frame = random_frame(rng, batch, h, w);
            frame.raw()[rng.uniform_int(0, frame.numel() - 1)] =
                std::numeric_limits<float>::quiet_NaN();
            const Tensor got = net.upscale(frame);
            const Tensor want = net.upscale_direct(frame);
            ASSERT_EQ(std::memcmp(got.raw(), want.raw(),
                                  static_cast<std::size_t>(got.numel()) * sizeof(float)),
                      0)
                << h << "x" << w << " batch " << batch;
          }
        }
      }
    }
  }
}

TEST(PlannedExecutor, HybridRunsOfInt8LayersCarryU8BetweenThem) {
  // Adjacent int8 layers of a hybrid plan pass u8; an int8 layer read by an
  // fp16 one stores float, with its residual added after the kernel.
  SesrInference net = make_inference(make_config(3, 2, true, true, true), 91);
  using P = LayerPrecision;
  const std::vector<LayerPrecision> plans[] = {{P::kInt8, P::kInt8, P::kInt8, P::kFp16, P::kInt8},
                                               {P::kFp16, P::kInt8, P::kInt8, P::kInt8, P::kFp16}};
  Rng rng(92);
  for (const std::vector<LayerPrecision>& layers : plans) {
    net.set_hybrid_plan(layers);
    net.set_precision(InferencePrecision::kHybrid);
    const ExecutionPlan plan = ExecutionPlan::compile(net, 9, 13);
    int u8_values = 0;
    for (const PlanValue& v : plan.values()) u8_values += v.space == ValueSpace::kU8;
    EXPECT_EQ(u8_values, layers[0] == P::kInt8 ? 1 : 2);
    for (const std::int64_t batch : {1, 2}) {
      const Tensor frame = random_frame(rng, batch, 9, 13);
      expect_bitwise(net.upscale(frame), net.upscale_direct(frame));
    }
  }
}

TEST(PlannedExecutor, ArenaGrowsToExactlyTheLargestShapeRunAndNeverShrinks) {
  const SesrInference base = make_inference(make_config(2, 2, false, true, false), 61);
  for (const InferencePrecision precision : kAllPrecisions) {
    SCOPED_TRACE(static_cast<int>(precision));
    SesrInference net = base;  // copies share no executor state
    net.set_precision(precision);
    const auto peak = [&](std::int64_t h, std::int64_t w) {
      return ExecutionPlan::compile(net, h, w).peak_activation_bytes();
    };
    EXPECT_EQ(net.plan_arena_bytes(), 0);  // nothing run yet
    Rng rng(62);
    const auto run = [&](std::int64_t n, std::int64_t h, std::int64_t w) {
      const Tensor frame = random_frame(rng, n, h, w);
      expect_bitwise(net.upscale(frame), net.upscale_direct(frame));
    };
    run(1, 20, 20);
    EXPECT_EQ(net.plan_arena_bytes(), peak(20, 20));
    // Growth by less than 2x lands on the exact need, not a doubled capacity.
    run(1, 24, 24);
    EXPECT_EQ(net.plan_arena_bytes(), peak(24, 24));
    // A batch needs its plan's peak once per item.
    run(2, 20, 20);
    EXPECT_EQ(net.plan_arena_bytes(), 2 * peak(20, 20));
    // Smaller units reuse the grown arena (stale contents and all) and never
    // shrink it.
    run(1, 10, 10);
    run(1, 24, 24);
    EXPECT_EQ(net.plan_arena_bytes(), 2 * peak(20, 20));
  }
}

}  // namespace
}  // namespace sesr::core::plan
