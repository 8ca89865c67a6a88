#include "core/video_session.hpp"

#include <cstring>
#include <stdexcept>

namespace sesr::core {

DeltaPlan plan_tile_delta(const Tensor& prev, const Tensor& next,
                          const TilingOptions& options, std::int64_t halo) {
  const Shape& s = next.shape();
  if (s.n() != 1 || s.c() != 1) {
    throw std::invalid_argument("plan_tile_delta: expects (1, H, W, 1) Y frames");
  }
  if (!(prev.shape() == s)) {
    throw std::invalid_argument("plan_tile_delta: frame shapes must match");
  }
  DeltaPlan plan;
  plan.tasks = tile_grid(s.h(), s.w(), options, halo);
  plan.dirty.assign(plan.tasks.size(), 0);
  const std::int64_t w = s.w();
  const float* a = prev.raw();
  const float* b = next.raw();
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const TileTask& t = plan.tasks[i];
    // Bitwise row-segment compare over the haloed footprint. memcmp on the
    // raw float bytes: NaN payloads and signed zeros count as changes, which
    // errs toward recompute — exactly the safe direction.
    for (std::int64_t y = t.hy0; y < t.hy0 + t.hh; ++y) {
      const std::size_t off = static_cast<std::size_t>(y * w + t.hx0);
      if (std::memcmp(a + off, b + off, static_cast<std::size_t>(t.hw) * sizeof(float)) != 0) {
        plan.dirty[i] = 1;
        ++plan.dirty_count;
        break;
      }
    }
  }
  return plan;
}

void splice_clean_tiles(Tensor& output, const Tensor& prev_hr, const DeltaPlan& plan,
                        std::int64_t scale) {
  if (!(output.shape() == prev_hr.shape())) {
    throw std::invalid_argument("splice_clean_tiles: HR shapes must match");
  }
  const std::int64_t w = output.shape().w();
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    if (plan.dirty[i]) continue;
    const TileTask& t = plan.tasks[i];
    for (std::int64_t y = t.y0 * scale; y < (t.y0 + t.th) * scale; ++y) {
      const std::size_t off = static_cast<std::size_t>(y * w + t.x0 * scale);
      std::memcpy(output.raw() + off, prev_hr.raw() + off,
                  static_cast<std::size_t>(t.tw) * scale * sizeof(float));
    }
  }
}

Tensor upscale_video_delta(const SesrInference& network, const Tensor& prev_lr,
                           const Tensor& prev_hr, const Tensor& next_lr,
                           const TilingOptions& options, std::int64_t halo,
                           std::size_t* dirty_out) {
  const DeltaPlan plan = plan_tile_delta(prev_lr, next_lr, options, halo);
  if (dirty_out != nullptr) *dirty_out = plan.dirty_count;
  const std::int64_t scale = network.config().scale;
  Tensor output(1, next_lr.shape().h() * scale, next_lr.shape().w() * scale, 1);
  splice_clean_tiles(output, prev_hr, plan, scale);
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    if (!plan.dirty[i]) continue;
    const TileTask& task = plan.tasks[i];
    paste_tile(output, upscale_tile(network, next_lr, task), task, scale);
  }
  return output;
}

}  // namespace sesr::core
