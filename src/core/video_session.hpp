// Tile-delta planning for temporally redundant (video) traffic.
//
// Consecutive video frames share most of their content; a collapsed SESR
// upscale is position-deterministic — the HR pixels of a tile depend only on
// the LR pixels inside its haloed footprint (tiled_inference's TileTask) — so
// a tile whose footprint is bitwise unchanged from the previous frame has a
// bitwise unchanged HR region. plan_tile_delta byte-compares every tile's
// haloed footprint against the previous frame (the ResponseCache confirmation
// trick applied at tile granularity: a stale or corrupt prior frame makes
// tiles *dirty*, never wrong) and the caller re-upscales only the dirty tiles,
// splicing the clean regions from the previous HR output.
//
// The bit-exactness contract: upscale_tile on the same grid + halo
// reproduces the full output bitwise for any halo >= the one the full pass
// used (exact halo for full-frame; the executed grid's own halo for tiled).
// The zero-tolerance audit pair `video_delta_vs_full` sweeps every serve mode
// x all four precisions against this promise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tiled_inference.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core {

// Which tiles of the grid must be recomputed for the new frame.
struct DeltaPlan {
  std::vector<TileTask> tasks;      // the full tile grid, row-major
  std::vector<std::uint8_t> dirty;  // per task: 1 = footprint changed
  std::size_t dirty_count = 0;
};

// Diff `next` against `prev` (same (1, H, W, 1) shape; throws otherwise) over
// the tile grid of `options` with the given resolved halo (>= 0). A tile is
// dirty iff any pixel in its haloed LR footprint differs bitwise.
DeltaPlan plan_tile_delta(const Tensor& prev, const Tensor& next,
                          const TilingOptions& options, std::int64_t halo);

// Copy the HR region of every clean tile from `prev_hr` into `output` (both
// (1, scale*H, scale*W, 1)). Dirty tiles are left untouched for the caller to
// recompute and paste.
void splice_clean_tiles(Tensor& output, const Tensor& prev_hr, const DeltaPlan& plan,
                        std::int64_t scale);

// Sequential reference for the delta path: given the previous frame's (LR,
// HR) pair and the next LR frame, recompute dirty tiles and splice the rest.
// Bit-identical to upscaling `next_lr` from scratch whenever `prev_hr` is the
// from-scratch output of `prev_lr`. `dirty_out`, when given, receives the
// number of recomputed tiles.
Tensor upscale_video_delta(const SesrInference& network, const Tensor& prev_lr,
                           const Tensor& prev_hr, const Tensor& next_lr,
                           const TilingOptions& options, std::int64_t halo,
                           std::size_t* dirty_out = nullptr);

}  // namespace sesr::core
