// Seeded synthetic video sequences — the temporal counterpart of
// data/synthetic's still-image families.
//
// Real SR traffic is video: long static stretches (paused frames, UI),
// smooth camera pans, hard scene cuts, and localized change (cursors,
// particles). Each pattern here produces a deterministic (1, H, W, 1) frame
// sequence from a single replayable seed, so the video-session delta path can
// be property-tested and benchmarked against exactly reproducible temporal
// structure: kStatic reuses every tile, kPan dirties everything but cheaply,
// kSparkle dirties only the tiles whose haloed footprints the perturbed
// pixels touch, kCut forces periodic full recomputes, and kMixed cycles
// through all of them the way a real session would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace sesr::data {

enum class VideoPattern {
  kStatic,   // one scene, every frame bitwise identical
  kPan,      // horizontal camera pan: every frame shifts pan_step LR pixels
  kCut,      // hard scene cut every cut_period frames, static in between
  kSparkle,  // static scene + a few per-frame single-pixel perturbations
  kMixed,    // static -> sparkle -> pan -> cut segments, repeating
};

struct VideoSequenceOptions {
  VideoPattern pattern = VideoPattern::kStatic;
  std::int64_t frames = 8;
  std::int64_t h = 48;
  std::int64_t w = 48;
  ImageFamily family = ImageFamily::kNatural;
  std::int64_t pan_step = 2;     // LR pixels shifted per kPan frame
  std::int64_t cut_period = 4;   // frames between kCut scene changes
  std::int64_t sparkle_pixels = 3;  // pixels perturbed per kSparkle frame
};

// Deterministic from (options, seed) alone: identical calls return bitwise
// identical sequences. Frames are (1, h, w, 1) in [0, 1].
std::vector<Tensor> synthesize_video(const VideoSequenceOptions& options, std::uint64_t seed);

std::string to_string(VideoPattern pattern);

}  // namespace sesr::data
