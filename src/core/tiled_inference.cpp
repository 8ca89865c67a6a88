#include "core/tiled_inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace sesr::core {

std::int64_t receptive_field_radius(const SesrInference& network) {
  std::int64_t radius = 0;
  for (const CollapsedConv& conv : network.convolutions()) {
    const std::int64_t k = std::max(conv.weight.shape().dim(0), conv.weight.shape().dim(1));
    radius += (k - 1) / 2;
  }
  return radius;
}

std::vector<TileTask> tile_grid(std::int64_t image_h, std::int64_t image_w,
                                const TilingOptions& options, std::int64_t halo) {
  if (image_h < 1 || image_w < 1) {
    throw std::invalid_argument("tile_grid: image dims must be positive");
  }
  if (options.tile_h < 1 || options.tile_w < 1) {
    throw std::invalid_argument("tile_grid: tile dims must be positive");
  }
  if (halo < 0) throw std::invalid_argument("tile_grid: halo must be resolved (>= 0)");
  std::vector<TileTask> tasks;
  for (std::int64_t y0 = 0; y0 < image_h; y0 += options.tile_h) {
    const std::int64_t th = std::min(options.tile_h, image_h - y0);
    for (std::int64_t x0 = 0; x0 < image_w; x0 += options.tile_w) {
      const std::int64_t tw = std::min(options.tile_w, image_w - x0);
      // Halo clamped at the image border: the tile then sees the same zero
      // padding the full-frame pass would apply there.
      TileTask t;
      t.y0 = y0;
      t.x0 = x0;
      t.th = th;
      t.tw = tw;
      t.hy0 = std::max<std::int64_t>(0, y0 - halo);
      t.hx0 = std::max<std::int64_t>(0, x0 - halo);
      t.hh = std::min(image_h, y0 + th + halo) - t.hy0;
      t.hw = std::min(image_w, x0 + tw + halo) - t.hx0;
      tasks.push_back(t);
    }
  }
  return tasks;
}

Tensor upscale_tile(const SesrInference& network, const Tensor& input, const TileTask& task) {
  const std::int64_t scale = network.config().scale;
  Tensor tile = crop_spatial(input, task.hy0, task.hx0, task.hh, task.hw);
  Tensor up = network.upscale(tile);
  return crop_spatial(up, (task.y0 - task.hy0) * scale, (task.x0 - task.hx0) * scale,
                      task.th * scale, task.tw * scale);
}

void paste_tile(Tensor& output, const Tensor& roi, const TileTask& task, std::int64_t scale) {
  for (std::int64_t y = 0; y < roi.shape().h(); ++y) {
    const float* src = roi.raw() + roi.shape().offset(0, y, 0, 0);
    float* dst =
        output.raw() + output.shape().offset(0, task.y0 * scale + y, task.x0 * scale, 0);
    std::copy(src, src + roi.shape().w(), dst);
  }
}

Tensor upscale_tiled(const SesrInference& network, const Tensor& input,
                     const TilingOptions& options) {
  const Shape& s = input.shape();
  if (s.n() != 1 || s.c() != 1) {
    throw std::invalid_argument("upscale_tiled: expects a (1, H, W, 1) Y image");
  }
  const std::int64_t halo =
      options.halo >= 0 ? options.halo : receptive_field_radius(network);
  const std::int64_t scale = network.config().scale;
  Tensor out(1, s.h() * scale, s.w() * scale, 1);
  for (const TileTask& task : tile_grid(s.h(), s.w(), options, halo)) {
    paste_tile(out, upscale_tile(network, input, task), task, scale);
  }
  return out;
}

double tiling_compute_overhead(std::int64_t image_h, std::int64_t image_w,
                               const TilingOptions& options, std::int64_t halo_used) {
  if (image_h < 1 || image_w < 1) throw std::invalid_argument("tiling_compute_overhead: bad image");
  double padded_pixels = 0.0;
  for (std::int64_t y0 = 0; y0 < image_h; y0 += options.tile_h) {
    const std::int64_t th = std::min(options.tile_h, image_h - y0);
    for (std::int64_t x0 = 0; x0 < image_w; x0 += options.tile_w) {
      const std::int64_t tw = std::min(options.tile_w, image_w - x0);
      const std::int64_t hy0 = std::max<std::int64_t>(0, y0 - halo_used);
      const std::int64_t hx0 = std::max<std::int64_t>(0, x0 - halo_used);
      const std::int64_t hy1 = std::min(image_h, y0 + th + halo_used);
      const std::int64_t hx1 = std::min(image_w, x0 + tw + halo_used);
      padded_pixels += static_cast<double>((hy1 - hy0) * (hx1 - hx0));
    }
  }
  return padded_pixels / (static_cast<double>(image_h) * static_cast<double>(image_w));
}

}  // namespace sesr::core
