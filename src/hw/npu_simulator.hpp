// Analytic mobile-NPU performance model — the stand-in for the Arm Ethos-N78
// performance estimator used in Section 5.6 (see DESIGN.md substitution table).
//
// Model (all constants in NpuConfig, calibrated against Table 3):
//  * int8 weights and activations (1 byte/element).
//  * Compute rate = TOP/s / 2 (MACs) x utilization.
//  * Cascading (layer fusion): consecutive layers are greedily grouped while
//    the stripe line-buffers of every internal boundary — kh rows of the
//    boundary tensor — fit in `cascade_buffer_bytes`. Within a cascade,
//    intermediate tensors never touch DRAM. This is the mechanism that makes
//    narrow nets (SESR, 16ch) stream end-to-end while wide nets (FSRCNN, 56ch
//    + a 9x9 deconv) fracture into DRAM-bound pieces — the paper's "memory
//    bandwidth, not MACs" effect.
//  * A cascade reads its input and writes its output through DRAM; if the
//    first layer's line buffer itself exceeds the budget, its input is
//    re-fetched kh times (no row reuse).
//  * Residual skips: the saved tensor is written to and re-read from DRAM
//    (large SISR feature maps cannot be pinned) — why the paper insists on
//    *collapsing* residuals and drops the input residual in the HW variant.
//  * runtime = sum over cascades of max(compute time, DRAM time)  (roofline).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan/network_ir.hpp"

namespace sesr::hw {

struct NpuConfig {
  double tops = 4.0;                    // peak int8 TOP/s (2 ops per MAC)
  double utilization = 0.55;            // achieved fraction of peak compute
  double dram_gbps = 8.0;               // effective DRAM bandwidth, GB/s
  // Total SRAM available for stripe-fusing a cascade of layers.
  std::int64_t cascade_buffer_bytes = 1024 * 1024;
  // Line buffer available to a single layer for reusing its input rows; a
  // layer whose kh rows exceed this re-fetches its input kh times (this is
  // what penalizes FSRCNN's 9x9/56-channel deconvolution at 1080p).
  std::int64_t line_buffer_bytes = 512 * 1024;
  double bytes_per_element = 1.0;       // int8 activations
  // Energy model: DRAM access costs ~2 orders of magnitude more than an int8
  // MAC (Horowitz, ISSCC'14 scaling) — the energy-side reason the paper
  // minimizes feature-map traffic, not just MACs.
  double pj_per_mac = 0.3;
  double pj_per_dram_byte = 20.0;

  double macs_per_second() const { return tops * 1e12 / 2.0 * utilization; }
};

// The 4-TOP/s configuration used throughout the paper's Figures 1(b) and Table 3.
NpuConfig ethos_n78_like();

struct CascadeCost {
  std::string label;          // first..last layer labels
  std::int64_t macs = 0;
  std::int64_t dram_bytes = 0;
  double compute_ms = 0.0;
  double dram_ms = 0.0;
  double runtime_ms() const { return compute_ms > dram_ms ? compute_ms : dram_ms; }
};

struct PerfReport {
  std::string model;
  std::int64_t macs = 0;
  double dram_traffic_mb = 0.0;  // total bytes moved (incl. refetch penalties)
  double dram_footprint_mb = 0.0;  // unique DRAM-resident tensors
  double runtime_ms = 0.0;
  double fps = 0.0;
  double energy_mj = 0.0;           // compute + DRAM energy per frame
  double energy_compute_mj = 0.0;   // MAC portion
  double energy_dram_mj = 0.0;      // traffic portion
  std::vector<CascadeCost> cascades;
};

// Price a network on the NPU.
PerfReport simulate(const NetworkIr& ir, const NpuConfig& config);

// Tiled inference (Section 5.6 "further optimizations"): price one tile and
// scale by the fractional tile count (1920/400 x 1080/300 = 17.28 in the
// paper). `halo` adds per-tile border pixels to account for receptive-field
// overlap (0 reproduces the paper's idealized arithmetic).
struct TiledReport {
  PerfReport tile;       // one tile
  double tile_count = 0.0;
  double total_runtime_ms = 0.0;
  double fps = 0.0;
};

TiledReport simulate_tiled(const NetworkIr& full_ir, std::int64_t tile_h, std::int64_t tile_w,
                           const NpuConfig& config, std::int64_t halo = 0);

}  // namespace sesr::hw
