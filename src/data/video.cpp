#include "data/video.hpp"

#include <stdexcept>
#include <utility>

#include "tensor/tensor_ops.hpp"

namespace sesr::data {

namespace {

void validate(const VideoSequenceOptions& o) {
  if (o.frames < 1) throw std::invalid_argument("synthesize_video: frames must be >= 1");
  if (o.h < 1 || o.w < 1) throw std::invalid_argument("synthesize_video: dims must be positive");
  if (o.pan_step < 1) throw std::invalid_argument("synthesize_video: pan_step must be >= 1");
  if (o.cut_period < 1) {
    throw std::invalid_argument("synthesize_video: cut_period must be >= 1");
  }
  if (o.sparkle_pixels < 1) {
    throw std::invalid_argument("synthesize_video: sparkle_pixels must be >= 1");
  }
}

std::vector<Tensor> make_static(const VideoSequenceOptions& o, Rng& rng) {
  const Tensor base = synthesize_image(o.family, o.h, o.w, rng);
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(o.frames));
  for (std::int64_t i = 0; i < o.frames; ++i) frames.push_back(base);
  return frames;
}

std::vector<Tensor> make_pan(const VideoSequenceOptions& o, Rng& rng) {
  // One wide scene; each frame is a sliding window shifted pan_step columns.
  const Tensor wide =
      synthesize_image(o.family, o.h, o.w + (o.frames - 1) * o.pan_step, rng);
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(o.frames));
  for (std::int64_t i = 0; i < o.frames; ++i) {
    frames.push_back(crop_spatial(wide, 0, i * o.pan_step, o.h, o.w));
  }
  return frames;
}

std::vector<Tensor> make_cut(const VideoSequenceOptions& o, Rng& rng) {
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(o.frames));
  Tensor scene = synthesize_image(o.family, o.h, o.w, rng);
  for (std::int64_t i = 0; i < o.frames; ++i) {
    if (i > 0 && i % o.cut_period == 0) {
      scene = synthesize_image(o.family, o.h, o.w, rng);
    }
    frames.push_back(scene);
  }
  return frames;
}

std::vector<Tensor> make_sparkle(const VideoSequenceOptions& o, Rng& rng) {
  // Static scene plus a handful of fresh single-pixel perturbations per
  // frame: consecutive frames differ only where last frame's sparkles revert
  // and this frame's land, so only the tiles whose haloed footprints those
  // pixels touch go dirty.
  const Tensor base = synthesize_image(o.family, o.h, o.w, rng);
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(o.frames));
  for (std::int64_t i = 0; i < o.frames; ++i) {
    Tensor frame = base;
    for (std::int64_t p = 0; p < o.sparkle_pixels; ++p) {
      const std::int64_t y = rng.uniform_int(0, o.h - 1);
      const std::int64_t x = rng.uniform_int(0, o.w - 1);
      frame(0, y, x, 0) = rng.uniform(0.0F, 1.0F);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<Tensor> generate(const VideoSequenceOptions& o, Rng& rng);

std::vector<Tensor> make_mixed(const VideoSequenceOptions& o, Rng& rng) {
  // Cycle static -> sparkle -> pan -> fresh-scene segments; each segment
  // draws from its own forked stream so segment lengths never perturb the
  // content of later segments.
  static constexpr VideoPattern kCycle[] = {VideoPattern::kStatic, VideoPattern::kSparkle,
                                            VideoPattern::kPan, VideoPattern::kCut};
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(o.frames));
  std::size_t phase = 0;
  while (std::ssize(frames) < o.frames) {
    VideoSequenceOptions seg = o;
    seg.pattern = kCycle[phase % 4];
    seg.frames = std::min<std::int64_t>(4, o.frames - std::ssize(frames));
    Rng seg_rng = rng.fork();
    std::vector<Tensor> chunk = generate(seg, seg_rng);
    for (Tensor& f : chunk) frames.push_back(std::move(f));
    ++phase;
  }
  return frames;
}

std::vector<Tensor> generate(const VideoSequenceOptions& o, Rng& rng) {
  switch (o.pattern) {
    case VideoPattern::kStatic:
      return make_static(o, rng);
    case VideoPattern::kPan:
      return make_pan(o, rng);
    case VideoPattern::kCut:
      return make_cut(o, rng);
    case VideoPattern::kSparkle:
      return make_sparkle(o, rng);
    case VideoPattern::kMixed:
      return make_mixed(o, rng);
  }
  throw std::invalid_argument("synthesize_video: unknown pattern");
}

}  // namespace

std::vector<Tensor> synthesize_video(const VideoSequenceOptions& options, std::uint64_t seed) {
  validate(options);
  Rng rng(seed ^ 0x5E5ED1DE0ULL);
  return generate(options, rng);
}

std::string to_string(VideoPattern pattern) {
  switch (pattern) {
    case VideoPattern::kStatic:
      return "static";
    case VideoPattern::kPan:
      return "pan";
    case VideoPattern::kCut:
      return "cut";
    case VideoPattern::kSparkle:
      return "sparkle";
    case VideoPattern::kMixed:
      return "mixed";
  }
  return "unknown";
}

}  // namespace sesr::data
