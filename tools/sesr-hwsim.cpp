// sesr_hwsim — price a network on the simulated mobile NPU with configurable
// hardware parameters; the interactive counterpart of bench_table3_npu.
//
//   sesr_hwsim --model=sesr-m5 --height=1080 --width=1920 --scale=2
//   sesr_hwsim --model=fsrcnn --dram-gbps=16 --tops=8
//   sesr_hwsim --model=sesr-m5 --tile-h=300 --tile-w=400 --halo=9
#include <cstdio>
#include <stdexcept>

#include "cli_args.hpp"
#include "core/plan/network_ir.hpp"
#include "core/sesr_network.hpp"
#include "hw/npu_simulator.hpp"

using namespace sesr;

namespace {
hw::NetworkIr build_ir(const std::string& model, std::int64_t h, std::int64_t w,
                       std::int64_t scale, bool standard_residuals) {
  auto sesr_cfg = [&](std::int64_t f, std::int64_t m) {
    core::SesrConfig c;
    c.f = f;
    c.m = m;
    c.scale = scale;
    return standard_residuals ? c : core::hardware_variant(c);
  };
  if (model == "sesr-m3") return hw::sesr_ir(sesr_cfg(16, 3), h, w);
  if (model == "sesr-m5") return hw::sesr_ir(sesr_cfg(16, 5), h, w);
  if (model == "sesr-m7") return hw::sesr_ir(sesr_cfg(16, 7), h, w);
  if (model == "sesr-m11") return hw::sesr_ir(sesr_cfg(16, 11), h, w);
  if (model == "sesr-xl") return hw::sesr_ir(sesr_cfg(32, 11), h, w);
  if (model == "fsrcnn") return hw::fsrcnn_ir(h, w, scale);
  if (model == "vdsr") return hw::vdsr_ir(h, w, scale);
  throw std::invalid_argument("unknown --model '" + model +
                              "' (sesr-m3/m5/m7/m11/xl, fsrcnn, vdsr)");
}
}  // namespace

int main(int argc, char** argv) {
  cli::Args args(
      {
          {"model", "sesr-m5", "sesr-m3|sesr-m5|sesr-m7|sesr-m11|sesr-xl|fsrcnn|vdsr"},
          {"height", "1080", "LR input height"},
          {"width", "1920", "LR input width"},
          {"scale", "2", "upscaling factor"},
          {"standard-residuals", "", "keep the long residuals (default: hardware variant)"},
          {"tops", "4", "NPU peak TOP/s"},
          {"utilization", "0.55", "achieved fraction of peak compute"},
          {"dram-gbps", "8", "effective DRAM bandwidth"},
          {"cascade-kib", "1024", "SRAM budget for layer fusion"},
          {"linebuf-kib", "512", "per-layer line buffer"},
          {"tile-h", "0", "tile height (0 = untiled)"},
          {"tile-w", "0", "tile width"},
          {"halo", "0", "tile halo in pixels"},
          {"cascades", "", "print the per-cascade breakdown"},
          {"help", "", "show this help"},
      },
      argc, argv);
  if (args.get_flag("help")) {
    args.usage("sesr_hwsim", "price a network on the simulated mobile NPU");
    return 0;
  }

  try {
    hw::NpuConfig npu;
    npu.tops = args.get_double("tops");
    npu.utilization = args.get_double("utilization");
    npu.dram_gbps = args.get_double("dram-gbps");
    npu.cascade_buffer_bytes = args.get_int("cascade-kib") * 1024;
    npu.line_buffer_bytes = args.get_int("linebuf-kib") * 1024;

    const hw::NetworkIr ir =
        build_ir(args.get("model"), args.get_int("height"), args.get_int("width"),
                 args.get_int("scale"), args.get_flag("standard-residuals"));
    std::printf("%s @ %lldx%lld (x%lld) on %.1f TOP/s, %.1f GB/s DRAM\n", ir.name.c_str(),
                static_cast<long long>(args.get_int("width")),
                static_cast<long long>(args.get_int("height")),
                static_cast<long long>(args.get_int("scale")), npu.tops, npu.dram_gbps);

    if (args.get_int("tile-h") > 0 && args.get_int("tile-w") > 0) {
      const hw::TiledReport r = hw::simulate_tiled(ir, args.get_int("tile-h"),
                                                   args.get_int("tile-w"), npu,
                                                   args.get_int("halo"));
      std::printf("tiled: %.2f tiles of %.2f GMACs, %.3f ms each\n", r.tile_count,
                  static_cast<double>(r.tile.macs) * 1e-9, r.tile.runtime_ms);
      std::printf("frame: %.2f ms = %.1f FPS\n", r.total_runtime_ms, r.fps);
      return 0;
    }

    const hw::PerfReport r = hw::simulate(ir, npu);
    std::printf("MACs      %10.2f G\n", static_cast<double>(r.macs) * 1e-9);
    std::printf("params    %10.2f K\n", static_cast<double>(ir.total_parameters()) * 1e-3);
    std::printf("DRAM      %10.1f MB traffic (%.1f MB footprint)\n", r.dram_traffic_mb,
                r.dram_footprint_mb);
    std::printf("runtime   %10.2f ms\n", r.runtime_ms);
    std::printf("FPS       %10.1f\n", r.fps);
    if (args.get_flag("cascades")) {
      std::printf("\ncascades:\n");
      for (const auto& c : r.cascades) {
        std::printf("  %-34s %7.2fG  %8.1fMB  compute %7.2fms  dram %7.2fms -> %7.2fms\n",
                    c.label.c_str(), static_cast<double>(c.macs) * 1e-9,
                    static_cast<double>(c.dram_bytes) * 1e-6, c.compute_ms, c.dram_ms,
                    c.runtime_ms());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
