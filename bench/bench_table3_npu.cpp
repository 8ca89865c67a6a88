// Reproduces Table 3: hardware performance on the (simulated) Arm Ethos-N78
// 4-TOP/s mobile NPU — MACs, DRAM traffic, runtime and FPS for FSRCNN x2,
// SESR-M5 x2, tiled x2 (400x300), SESR-M5 x4 (1080p -> 8K) and tiled x4.
// Models use the paper's hardware variant (ReLU, no input residual; both nets
// lose ~0.1 dB, Section 5.5).
#include <cstdio>

#include "bench_common.hpp"
#include "core/paper_reference.hpp"
#include "core/plan/network_ir.hpp"
#include "hw/npu_simulator.hpp"

using namespace sesr;

namespace {
void print_row(const char* label, double macs_g, double dram_mb, double runtime_ms, double fps,
               const core::paper::HardwareRow& paper) {
  std::printf("%-42s %7.2fG %9.1fMB %9.2fms %8.1f\n", label, macs_g, dram_mb, runtime_ms, fps);
  std::printf("%-42s %7.2fG %9.1fMB %9.2fms %8.1f\n", "  (paper)", paper.macs_g, paper.dram_mb,
              paper.runtime_ms, paper.fps);
}
}  // namespace

int main() {
  bench::print_header("Table 3 — NPU hardware performance, 1080p input",
                      "Bhardwaj et al., MLSys 2022, Table 3");
  const hw::NpuConfig npu = hw::ethos_n78_like();
  std::printf("NPU model: %.0f TOP/s, util %.2f, DRAM %.1f GB/s, cascade %lld KiB, "
              "line buffer %lld KiB\n\n",
              npu.tops, npu.utilization, npu.dram_gbps,
              static_cast<long long>(npu.cascade_buffer_bytes / 1024),
              static_cast<long long>(npu.line_buffer_bytes / 1024));
  std::printf("%-42s %8s %11s %11s %8s\n", "model", "MACs", "DRAM", "runtime", "FPS");

  const hw::NetworkIr fsrcnn = hw::fsrcnn_ir(1080, 1920, 2);
  const hw::PerfReport fs = hw::simulate(fsrcnn, npu);
  print_row("FSRCNN (x2) 1080p->4K", fs.macs * 1e-9, fs.dram_traffic_mb, fs.runtime_ms, fs.fps,
            core::paper::kTable3[0]);

  const hw::NetworkIr m5x2 = hw::sesr_ir(core::hardware_variant(core::sesr_m5(2)), 1080, 1920);
  const hw::PerfReport s2 = hw::simulate(m5x2, npu);
  print_row("SESR-M5 (x2) 1080p->4K", s2.macs * 1e-9, s2.dram_traffic_mb, s2.runtime_ms, s2.fps,
            core::paper::kTable3[1]);
  std::printf("  runtime improvement over FSRCNN: %.2fx (paper 6.15x)\n",
              fs.runtime_ms / s2.runtime_ms);

  const hw::TiledReport t2 = hw::simulate_tiled(m5x2, 300, 400, npu);
  print_row("SESR-M5 (tiled x2) 400x300->800x600", t2.tile.macs * 1e-9, t2.tile.dram_traffic_mb,
            t2.tile.runtime_ms, t2.tile.fps, core::paper::kTable3[2]);
  std::printf("  %.2f tiles/frame -> full-frame %.2fms = %.0f FPS (paper ~21.8ms = 46 FPS)\n",
              t2.tile_count, t2.total_runtime_ms, t2.fps);

  const hw::NetworkIr m5x4 = hw::sesr_ir(core::hardware_variant(core::sesr_m5(4)), 1080, 1920);
  const hw::PerfReport s4 = hw::simulate(m5x4, npu);
  print_row("SESR-M5 (x4) 1080p->8K", s4.macs * 1e-9, s4.dram_traffic_mb, s4.runtime_ms, s4.fps,
            core::paper::kTable3[3]);

  const hw::TiledReport t4 = hw::simulate_tiled(m5x4, 300, 400, npu);
  print_row("SESR-M5 (tiled x4) 400x300->1600x1200", t4.tile.macs * 1e-9,
            t4.tile.dram_traffic_mb, t4.tile.runtime_ms, t4.tile.fps, core::paper::kTable3[4]);
  std::printf("  %.2f tiles/frame -> full-frame %.2fms = %.0f FPS (paper -> 27 FPS)\n",
              t4.tile_count, t4.total_runtime_ms, t4.fps);

  std::printf("\nEnergy per frame (%.1f pJ/MAC, %.0f pJ/DRAM byte):\n", npu.pj_per_mac,
              npu.pj_per_dram_byte);
  std::printf("  FSRCNN x2:  %6.1f mJ (compute %5.1f + DRAM %5.1f)\n", fs.energy_mj,
              fs.energy_compute_mj, fs.energy_dram_mj);
  std::printf("  SESR-M5 x2: %6.1f mJ (compute %5.1f + DRAM %5.1f)  -> %.1fx less energy\n",
              s2.energy_mj, s2.energy_compute_mj, s2.energy_dram_mj,
              fs.energy_mj / s2.energy_mj);

  std::printf("\nCascade breakdown (FSRCNN x2) — where the bandwidth goes:\n");
  for (const auto& c : fs.cascades) {
    std::printf("  %-32s macs %6.2fG  dram %8.1fMB  compute %7.2fms  dram %7.2fms\n",
                c.label.c_str(), static_cast<double>(c.macs) * 1e-9,
                static_cast<double>(c.dram_bytes) * 1e-6, c.compute_ms, c.dram_ms);
  }
  std::printf("\nNote: absolute DRAM MB differs from Arm's closed estimator (different\n"
              "fusion policy); the reproduced claims are the MAC counts, the runtime\n"
              "inversion (2x fewer MACs -> ~6x faster) and the FPS bands.\n");
  return 0;
}
