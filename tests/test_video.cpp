// Deterministic temporal tests for the video delta path.
//
// Three layers, bottom up:
//   1. data/video — the seeded synthetic sequence generator: bitwise
//      reproducible from (options, seed), with each pattern's structural
//      promise (static frames identical, sparkle bounded, cut periodic).
//   2. core/video_session::plan_tile_delta — the halo-dirty rule as a
//      property: a single changed LR pixel dirties EXACTLY the tiles whose
//      haloed footprint contains it, including boundary tiles, halo = 0,
//      tile > image, and non-divisible grids.
//   3. core/video_session::upscale_video_delta — splice + recompute is
//      bit-identical to upscaling the next frame from scratch through the
//      same path, for all four precisions.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "core/video_session.hpp"
#include "data/video.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::size_t count_diff_pixels(const Tensor& a, const Tensor& b) {
  std::size_t n = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (a.raw()[i] != b.raw()[i]) ++n;
  }
  return n;
}

// ------------------------------------------------------ synthetic sequences

TEST(VideoSynthesis, DeterministicFromSeed) {
  const data::VideoPattern patterns[] = {data::VideoPattern::kStatic, data::VideoPattern::kPan,
                                         data::VideoPattern::kCut, data::VideoPattern::kSparkle,
                                         data::VideoPattern::kMixed};
  for (const data::VideoPattern pattern : patterns) {
    SCOPED_TRACE(data::to_string(pattern));
    data::VideoSequenceOptions options;
    options.pattern = pattern;
    options.frames = 6;
    options.h = 20;
    options.w = 24;
    const std::vector<Tensor> a = data::synthesize_video(options, 17);
    const std::vector<Tensor> b = data::synthesize_video(options, 17);
    ASSERT_EQ(a.size(), 6U);
    ASSERT_EQ(b.size(), 6U);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].shape(), Shape(1, 20, 24, 1));
      EXPECT_TRUE(bitwise_equal(a[i], b[i])) << "frame " << i;
    }
    // A different seed must change the content (overwhelmingly likely).
    const std::vector<Tensor> c = data::synthesize_video(options, 18);
    EXPECT_FALSE(bitwise_equal(a[0], c[0]));
  }
}

TEST(VideoSynthesis, StaticFramesAreBitwiseIdentical) {
  data::VideoSequenceOptions options;
  options.pattern = data::VideoPattern::kStatic;
  options.frames = 5;
  options.h = 16;
  options.w = 16;
  const std::vector<Tensor> frames = data::synthesize_video(options, 3);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(frames[0], frames[i])) << "frame " << i;
  }
}

TEST(VideoSynthesis, SparklePerturbsBoundedPixelCount) {
  data::VideoSequenceOptions options;
  options.pattern = data::VideoPattern::kSparkle;
  options.frames = 6;
  options.h = 20;
  options.w = 20;
  options.sparkle_pixels = 3;
  const std::vector<Tensor> frames = data::synthesize_video(options, 9);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const std::size_t changed = count_diff_pixels(frames[i - 1], frames[i]);
    EXPECT_GE(changed, 1U) << "frame " << i;  // a sparkle frame must move
    // Each frame re-perturbs <= sparkle_pixels positions and restores the
    // previous frame's perturbations, so consecutive frames differ in at
    // most 2 * sparkle_pixels pixels.
    EXPECT_LE(changed, 2U * 3U) << "frame " << i;
  }
}

TEST(VideoSynthesis, CutChangesSceneOnPeriod) {
  data::VideoSequenceOptions options;
  options.pattern = data::VideoPattern::kCut;
  options.frames = 8;
  options.h = 16;
  options.w = 16;
  options.cut_period = 3;
  const std::vector<Tensor> frames = data::synthesize_video(options, 11);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const bool cut = i % 3 == 0;
    EXPECT_EQ(!bitwise_equal(frames[i - 1], frames[i]), cut) << "frame " << i;
  }
}

TEST(VideoSynthesis, PanShiftsContent) {
  data::VideoSequenceOptions options;
  options.pattern = data::VideoPattern::kPan;
  options.frames = 4;
  options.h = 16;
  options.w = 16;
  options.pan_step = 2;
  const std::vector<Tensor> frames = data::synthesize_video(options, 5);
  // Frame i+1 is frame i shifted left by pan_step: columns [pan_step, w)
  // of frame i equal columns [0, w - pan_step) of frame i+1.
  for (std::size_t i = 1; i < frames.size(); ++i) {
    for (std::int64_t y = 0; y < 16; ++y) {
      for (std::int64_t x = 0; x < 16 - 2; ++x) {
        ASSERT_EQ(frames[i - 1].raw()[y * 16 + x + 2], frames[i].raw()[y * 16 + x])
            << "frame " << i << " y=" << y << " x=" << x;
      }
    }
    EXPECT_FALSE(bitwise_equal(frames[i - 1], frames[i]));
  }
}

TEST(VideoSynthesis, RejectsInvalidOptions) {
  data::VideoSequenceOptions options;
  options.frames = 0;
  EXPECT_THROW(data::synthesize_video(options, 1), std::invalid_argument);
}

// ----------------------------------------------------- halo-dirty property

Tensor random_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  Rng rng(seed);
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

// One changed pixel at (y, x): a tile is dirty iff its haloed footprint
// [hy0, hy0+hh) x [hx0, hx0+hw) contains the pixel. Exactness both ways —
// no missed dirty tile (correctness) and no spurious one (efficiency).
void check_single_pixel_dirty(std::int64_t h, std::int64_t w, const core::TilingOptions& options,
                              std::int64_t halo, std::int64_t y, std::int64_t x) {
  const Tensor prev = random_frame(41, h, w);
  Tensor next = prev;
  next.raw()[y * w + x] += 0.25F;
  const core::DeltaPlan plan = core::plan_tile_delta(prev, next, options, halo);
  ASSERT_EQ(plan.tasks.size(), plan.dirty.size());
  ASSERT_EQ(plan.tasks.size(), core::tile_grid(h, w, options, halo).size());
  std::size_t dirty_count = 0;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const core::TileTask& t = plan.tasks[i];
    const bool in_footprint =
        y >= t.hy0 && y < t.hy0 + t.hh && x >= t.hx0 && x < t.hx0 + t.hw;
    EXPECT_EQ(plan.dirty[i] != 0, in_footprint)
        << "tile " << i << " at (" << t.y0 << "," << t.x0 << ") halo box (" << t.hy0 << ","
        << t.hx0 << ")+" << t.hh << "x" << t.hw << " pixel (" << y << "," << x << ")";
    if (plan.dirty[i]) ++dirty_count;
  }
  EXPECT_EQ(plan.dirty_count, dirty_count);
  EXPECT_GE(plan.dirty_count, 1U);  // the pixel's own tile is always dirty
}

TEST(TileDeltaPlan, SinglePixelDirtiesExactlyHaloedFootprints) {
  core::TilingOptions options;
  options.tile_h = 4;
  options.tile_w = 4;
  // Interior, tile-corner, and image-boundary pixels on a divisible grid.
  for (const auto& [y, x] : {std::pair<std::int64_t, std::int64_t>{6, 6},
                            {4, 4},
                            {0, 0},
                            {11, 11},
                            {0, 7},
                            {5, 0}}) {
    SCOPED_TRACE("pixel (" + std::to_string(y) + "," + std::to_string(x) + ")");
    check_single_pixel_dirty(12, 12, options, 1, y, x);
  }
}

TEST(TileDeltaPlan, HaloZeroDirtiesOnlyTheOwningTile) {
  core::TilingOptions options;
  options.tile_h = 4;
  options.tile_w = 4;
  const Tensor prev = random_frame(43, 12, 12);
  Tensor next = prev;
  next.raw()[5 * 12 + 6] += 0.5F;  // tile row 1, col 1
  const core::DeltaPlan plan = core::plan_tile_delta(prev, next, options, 0);
  EXPECT_EQ(plan.dirty_count, 1U);
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    EXPECT_EQ(plan.dirty[i] != 0, plan.tasks[i].y0 == 4 && plan.tasks[i].x0 == 4) << i;
  }
}

TEST(TileDeltaPlan, NonDivisibleGridAndWideHalo) {
  core::TilingOptions options;
  options.tile_h = 5;
  options.tile_w = 7;
  for (std::int64_t halo : {0, 2, 3}) {
    for (const auto& [y, x] : {std::pair<std::int64_t, std::int64_t>{0, 0},
                              {12, 16},
                              {9, 13},
                              {4, 6},
                              {5, 7}}) {
      SCOPED_TRACE("halo " + std::to_string(halo) + " pixel (" + std::to_string(y) + "," +
                   std::to_string(x) + ")");
      check_single_pixel_dirty(13, 17, options, halo, y, x);
    }
  }
}

TEST(TileDeltaPlan, TileLargerThanImageIsOneTile) {
  core::TilingOptions options;
  options.tile_h = 64;
  options.tile_w = 64;
  const Tensor prev = random_frame(47, 9, 11);
  Tensor next = prev;
  const core::DeltaPlan clean = core::plan_tile_delta(prev, next, options, 3);
  ASSERT_EQ(clean.tasks.size(), 1U);
  EXPECT_EQ(clean.dirty_count, 0U);
  next.raw()[3] += 1.0F;
  const core::DeltaPlan dirty = core::plan_tile_delta(prev, next, options, 3);
  EXPECT_EQ(dirty.dirty_count, 1U);
}

TEST(TileDeltaPlan, IdenticalFramesAreAllClean) {
  core::TilingOptions options;
  options.tile_h = 4;
  options.tile_w = 4;
  const Tensor prev = random_frame(53, 10, 14);
  const core::DeltaPlan plan = core::plan_tile_delta(prev, prev, options, 2);
  EXPECT_EQ(plan.dirty_count, 0U);
  for (const std::uint8_t d : plan.dirty) EXPECT_EQ(d, 0);
}

TEST(TileDeltaPlan, RejectsMismatchedShapes) {
  core::TilingOptions options;
  EXPECT_THROW(
      core::plan_tile_delta(random_frame(1, 8, 8), random_frame(2, 8, 10), options, 1),
      std::invalid_argument);
  EXPECT_THROW(core::plan_tile_delta(Tensor(2, 8, 8, 1), Tensor(2, 8, 8, 1), options, 1),
               std::invalid_argument);
}

// -------------------------------------------------- splice + delta upscale

TEST(VideoDelta, SpliceCopiesCleanRegionsOnly) {
  core::TilingOptions options;
  options.tile_h = 3;
  options.tile_w = 3;
  const std::int64_t h = 7, w = 8, scale = 2;
  const Tensor prev = random_frame(59, h, w);
  Tensor next = prev;
  next.raw()[0] += 1.0F;  // dirties the top-left neighbourhood
  const core::DeltaPlan plan = core::plan_tile_delta(prev, next, options, 1);
  ASSERT_GT(plan.dirty_count, 0U);
  ASSERT_LT(plan.dirty_count, plan.tasks.size());

  Tensor prev_hr = random_frame(61, h * scale, w * scale);
  Tensor output(1, h * scale, w * scale, 1);
  for (std::int64_t i = 0; i < output.numel(); ++i) output.raw()[i] = -7.0F;  // sentinel
  core::splice_clean_tiles(output, prev_hr, plan, scale);

  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const core::TileTask& t = plan.tasks[i];
    for (std::int64_t y = t.y0 * scale; y < (t.y0 + t.th) * scale; ++y) {
      for (std::int64_t x = t.x0 * scale; x < (t.x0 + t.tw) * scale; ++x) {
        const float got = output.raw()[y * w * scale + x];
        if (plan.dirty[i]) {
          ASSERT_EQ(got, -7.0F) << "dirty tile " << i << " was written";
        } else {
          ASSERT_EQ(got, prev_hr.raw()[y * w * scale + x]) << "clean tile " << i;
        }
      }
    }
  }
}

core::SesrConfig video_config(bool with_bias) {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = 2;
  config.expand = 16;
  config.prelu = true;
  config.with_bias = with_bias;
  return config;
}

core::SesrInference make_network(std::uint64_t seed, bool with_bias) {
  Rng rng(seed);
  core::SesrNetwork network(video_config(with_bias), rng);
  core::SesrInference inference(network);
  inference.calibrate_int8({random_frame(seed ^ 0xCA11B0ULL, 12, 12)});
  std::vector<core::LayerPrecision> plan(inference.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = core::LayerPrecision::kInt8;
  inference.set_hybrid_plan(std::move(plan));
  return inference;
}

// Delta reuse vs from-scratch, tiled path, every precision: recompute dirty
// tiles + splice the rest must equal upscale_tiled of the next frame bitwise.
TEST(VideoDelta, TiledBitIdenticalAllPrecisions) {
  const core::InferencePrecision precisions[] = {
      core::InferencePrecision::kFp32, core::InferencePrecision::kFp16,
      core::InferencePrecision::kInt8, core::InferencePrecision::kHybrid};
  for (const bool with_bias : {false, true}) {
    core::SesrInference net = make_network(71, with_bias);
    core::TilingOptions options;
    options.tile_h = 5;
    options.tile_w = 6;
    // Any halo works for the tiled path (delta recomputes through the same
    // grid as the full pass), and a small one keeps the haloed footprints
    // small enough that sparkle frames actually reuse tiles on this image.
    const std::int64_t halo = 1;
    options.halo = halo;
    data::VideoSequenceOptions vopts;
    vopts.pattern = data::VideoPattern::kSparkle;
    vopts.frames = 4;
    vopts.h = 18;
    vopts.w = 22;
    const std::vector<Tensor> frames = data::synthesize_video(vopts, 73);
    for (const core::InferencePrecision precision : precisions) {
      SCOPED_TRACE("bias=" + std::to_string(with_bias) +
                   " precision=" + std::to_string(static_cast<int>(precision)));
      net.set_precision(precision);
      Tensor prev_hr = core::upscale_tiled(net, frames[0], options);
      for (std::size_t i = 1; i < frames.size(); ++i) {
        std::size_t dirty = 0;
        const Tensor got = core::upscale_video_delta(net, frames[i - 1], prev_hr, frames[i],
                                                     options, halo, &dirty);
        const Tensor want = core::upscale_tiled(net, frames[i], options);
        ASSERT_EQ(max_abs_diff(got, want), 0.0F) << "frame " << i;
        ASSERT_TRUE(bitwise_equal(got, want)) << "frame " << i;
        // Sparkle touches a handful of pixels; the plan must reuse tiles.
        ASSERT_LT(dirty, core::tile_grid(18, 22, options, halo).size()) << "frame " << i;
        prev_hr = got;  // chain: reuse the delta output as the next prior
      }
    }
  }
}

// A corrupt (stale) prior frame must only cost compute, never correctness:
// byte confirmation marks the mismatching tiles dirty and recomputes them.
TEST(VideoDelta, StaleSnapshotRecomputesNeverSplicesWrong) {
  core::SesrInference net = make_network(89, /*with_bias=*/false);
  core::TilingOptions options;
  options.tile_h = 4;
  options.tile_w = 4;
  const std::int64_t halo = core::receptive_field_radius(net);
  options.halo = halo;
  const Tensor truth_prev = random_frame(97, 12, 12);
  const Tensor next = random_frame(101, 12, 12);
  // The session's LR snapshot disagrees with what produced prev_hr — e.g. a
  // torn update. Every tile whose footprint mismatches must recompute.
  Tensor stale_prev = truth_prev;
  for (std::int64_t i = 0; i < stale_prev.numel(); i += 7) stale_prev.raw()[i] += 0.1F;
  const Tensor prev_hr = core::upscale_tiled(net, truth_prev, options);
  std::size_t dirty = 0;
  const Tensor got =
      core::upscale_video_delta(net, stale_prev, prev_hr, next, options, halo, &dirty);
  const Tensor want = core::upscale_tiled(net, next, options);
  EXPECT_TRUE(bitwise_equal(got, want));
  EXPECT_EQ(dirty, core::tile_grid(12, 12, options, halo).size());  // all dirty
}

}  // namespace
}  // namespace sesr
