// Functional tiled inference (paper Section 5.6, "further optimizations").
//
// The NPU study prices tiling analytically; this module actually *runs* it:
// the LR image is cut into tiles, each tile is padded with a halo of real
// image pixels covering the network's receptive field, upscaled independently,
// and the HR tiles are stitched. With halo >= receptive-field radius the
// stitched result is exactly the full-frame result (a property test asserts
// this) — the "boundary overhead ... to maintain the functional correctness"
// the paper mentions. Smaller halos trade exactness for less overlap compute.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sesr_inference.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core {

struct TilingOptions {
  std::int64_t tile_h = 64;  // LR tile size (without halo)
  std::int64_t tile_w = 64;
  std::int64_t halo = -1;    // -1 = exact (receptive-field radius)
};

// Receptive-field radius of the collapsed network: sum over convs of
// (max(kh, kw) - 1) / 2 — the halo needed for exact tiling.
std::int64_t receptive_field_radius(const SesrInference& network);

// One tile of the grid, in LR coordinates. The fan-out seam: tasks are
// independent — any thread may run upscale_tile on any task and paste the
// result, because the pasted HR regions are disjoint.
struct TileTask {
  std::int64_t y0 = 0, x0 = 0;  // tile origin (without halo)
  std::int64_t th = 0, tw = 0;  // tile extent (without halo)
  std::int64_t hy0 = 0, hx0 = 0;  // haloed crop origin (clamped to the image)
  std::int64_t hh = 0, hw = 0;    // haloed crop extent
};

// Enumerate the tile grid for an (1, H, W, 1) input, row-major. Halo < 0 is
// resolved by the caller (pass receptive_field_radius for exactness).
std::vector<TileTask> tile_grid(std::int64_t image_h, std::int64_t image_w,
                                const TilingOptions& options, std::int64_t halo);

// Upscale one task's haloed crop and return the HR region of interest
// (th*scale by tw*scale) to paste at (y0*scale, x0*scale).
Tensor upscale_tile(const SesrInference& network, const Tensor& input, const TileTask& task);

// Paste an upscale_tile result into the (1, scale*H, scale*W, 1) output frame.
// Distinct tasks write disjoint regions, so concurrent pastes need no lock.
void paste_tile(Tensor& output, const Tensor& roi, const TileTask& task, std::int64_t scale);

// Upscale (1, H, W, 1) tile by tile. Edge tiles clamp the halo at the image
// border (replicating the full-frame padding behaviour).
Tensor upscale_tiled(const SesrInference& network, const Tensor& input,
                     const TilingOptions& options);

// Overhead accounting: total LR pixels convolved (tiles + halos) relative to
// the untiled H*W — the paper's "boundary overhead" made measurable.
double tiling_compute_overhead(std::int64_t image_h, std::int64_t image_w,
                               const TilingOptions& options, std::int64_t halo_used);

}  // namespace sesr::core
