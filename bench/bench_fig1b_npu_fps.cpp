// Reproduces Fig. 1(b): theoretical FPS of SISR models performing 1080p -> 4K
// (x2) on a commercial 4-TOP/s mobile NPU. The paper's claims: most published
// models land below 3 FPS, FSRCNN manages ~37 FPS *best case* (compute-bound
// bound; its measured Table-3 number is ~6 FPS), and three of five SESR
// configurations reach ~60 FPS or more in the best case.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/macs.hpp"
#include "core/plan/network_ir.hpp"
#include "hw/npu_simulator.hpp"

using namespace sesr;

int main() {
  bench::print_header("Fig. 1(b) — FPS on a 4-TOP/s mobile NPU, 1080p->4K (x2)",
                      "Bhardwaj et al., MLSys 2022, Figure 1(b)");
  const hw::NpuConfig npu = hw::ethos_n78_like();
  constexpr std::int64_t kH = 1080;
  constexpr std::int64_t kW = 1920;

  struct Row {
    std::string name;
    hw::NetworkIr ir;
    double paper_fps;  // approximate values read off Fig. 1(b); 0 = not shown
  };
  std::vector<Row> rows;
  rows.push_back({"VDSR", hw::vdsr_ir(kH, kW, 2), 0.1});
  rows.push_back({"CARN-M (budget-matched)",
                  hw::generic_residual_ir("CARN-M", kH, kW, 2, 64, 91'200'000'000LL * 9), 0.5});
  rows.push_back({"LapSRN (budget-matched)",
                  hw::generic_residual_ir("LapSRN", kH, kW, 2, 64, 29'900'000'000LL * 9), 1.5});
  rows.push_back({"TPSR-NoGAN (budget-matched)",
                  hw::generic_residual_ir("TPSR", kH, kW, 2, 18, 14'000'000'000LL * 9), 0.0});
  rows.push_back({"FSRCNN", hw::fsrcnn_ir(kH, kW, 2), 6.0});
  for (const auto& cfg : {core::sesr_m3(2), core::sesr_m5(2), core::sesr_m7(2),
                          core::sesr_m11(2), core::sesr_xl(2)}) {
    rows.push_back({cfg.describe(), hw::sesr_ir(core::hardware_variant(cfg), kH, kW), 0.0});
  }

  std::printf("%-34s %10s %10s %10s %12s\n", "model", "GMACs", "runtime", "FPS",
              "best-case FPS");
  std::printf("%-34s %10s %10s %10s %12s\n", "", "", "(ms)", "(simulated)",
              "(compute only)");
  int sesr_over_30 = 0;
  for (const Row& row : rows) {
    const hw::PerfReport r = hw::simulate(row.ir, npu);
    // "Best case, 100% utilization" FPS as the paper plots in Fig. 1(b).
    const double best_fps =
        1.0 / (static_cast<double>(r.macs) / (npu.tops * 1e12 / 2.0));
    std::printf("%-34s %9.1fG %9.2fms %10.2f %12.1f", row.name.c_str(),
                static_cast<double>(r.macs) * 1e-9, r.runtime_ms, r.fps, best_fps);
    if (row.paper_fps > 0.0) std::printf("   (paper ~%.1f FPS)", row.paper_fps);
    std::printf("\n");
    if (row.name.rfind("SESR", 0) == 0 && best_fps >= 50.0) ++sesr_over_30;
  }
  std::printf("\npaper: 'three out of five SESR CNNs theoretically achieve nearly 60 FPS or\n"
              "more' (best-case, 100%% utilization); here %d of 5 SESR configs reach >= 50\n"
              "best-case FPS, and the big published CNNs stay below 3 FPS either way.\n",
              sesr_over_30);
  return 0;
}
