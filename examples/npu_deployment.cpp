// NPU deployment planning: price a model zoo on the simulated Ethos-N78-class
// NPU for a chosen upscaling task, then explore tile sizes — the Section 5.6
// workflow a deployment engineer would run before committing to a model.
//
// Run:  ./npu_deployment [height] [width] [scale]    (default 1080 1920 2)
#include <cstdio>
#include <cstdlib>

#include "core/plan/network_ir.hpp"
#include "core/sesr_network.hpp"
#include "hw/npu_simulator.hpp"

using namespace sesr;

int main(int argc, char** argv) {
  const std::int64_t h = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 1080;
  const std::int64_t w = argc > 2 ? std::strtol(argv[2], nullptr, 10) : 1920;
  const std::int64_t scale = argc > 3 ? std::strtol(argv[3], nullptr, 10) : 2;
  const hw::NpuConfig npu = hw::ethos_n78_like();

  std::printf("task: %lldx%lld -> %lldx%lld (x%lld) on %.0f TOP/s NPU\n\n",
              static_cast<long long>(w), static_cast<long long>(h),
              static_cast<long long>(w * scale), static_cast<long long>(h * scale),
              static_cast<long long>(scale), npu.tops);

  std::printf("%-28s %9s %10s %10s %8s %9s\n", "model", "GMACs", "DRAM", "runtime", "FPS",
              "cascades");
  std::vector<core::SesrConfig> zoo{core::sesr_m3(scale), core::sesr_m5(scale),
                                    core::sesr_m7(scale), core::sesr_m11(scale),
                                    core::sesr_xl(scale)};
  for (const auto& cfg : zoo) {
    const hw::PerfReport r = hw::simulate(hw::sesr_ir(core::hardware_variant(cfg), h, w), npu);
    std::printf("%-28s %8.1fG %8.1fMB %8.2fms %8.1f %9zu\n", cfg.describe().c_str(),
                static_cast<double>(r.macs) * 1e-9, r.dram_traffic_mb, r.runtime_ms, r.fps,
                r.cascades.size());
  }
  {
    const hw::PerfReport r = hw::simulate(hw::fsrcnn_ir(h, w, scale), npu);
    std::printf("%-28s %8.1fG %8.1fMB %8.2fms %8.1f %9zu\n", "FSRCNN",
                static_cast<double>(r.macs) * 1e-9, r.dram_traffic_mb, r.runtime_ms, r.fps,
                r.cascades.size());
  }

  // Tiling is explored on FSRCNN: its 56-channel maps fracture the cascade at
  // full frame, so tiles genuinely buy DRAM traffic back. (Our fusion model
  // streams 16-channel SESR end-to-end even at 1080p, so SESR only pays halo
  // overhead from tiling — Arm's estimator fuses less aggressively, which is
  // why the paper still gains ~20% by tiling SESR; see EXPERIMENTS.md.)
  std::printf("\ntile-size exploration for FSRCNN (halo 4 px per side):\n");
  std::printf("%12s %14s %12s %12s %10s\n", "tile", "tiles/frame", "ms/tile", "ms/frame", "FPS");
  const hw::NetworkIr full = hw::fsrcnn_ir(h, w, scale);
  struct TileChoice {
    std::int64_t th;
    std::int64_t tw;
  };
  for (const TileChoice t : {TileChoice{135, 240}, TileChoice{270, 480}, TileChoice{300, 400},
                             TileChoice{540, 960}, TileChoice{1080, 1920}}) {
    if (t.th > h || t.tw > w) continue;
    const hw::TiledReport r = hw::simulate_tiled(full, t.th, t.tw, npu, /*halo=*/4);
    std::printf("%6lldx%-5lld %14.2f %12.3f %12.2f %10.1f\n", static_cast<long long>(t.tw),
                static_cast<long long>(t.th), r.tile_count, r.tile.runtime_ms,
                r.total_runtime_ms, r.fps);
  }
  std::printf("\nsmaller tiles keep every tensor in SRAM but pay halo overhead; large tiles\n"
              "spill to DRAM — the sweet spot is the paper's Section 5.6 tiling argument.\n");
  return 0;
}
