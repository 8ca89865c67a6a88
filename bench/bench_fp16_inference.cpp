// Precision sweep of collapsed inference: fp32 vs fp16 (binary16 storage,
// fp32 accumulate, F16C conversions) vs int8, across full-frame and
// exact-halo tiled execution, at 1 and 4 intra-op threads, on SESR-M5 / M11 /
// XL x2.
//
// The deployment claim under test (docs/PERFORMANCE.md, "Precision"): halving
// the activation/weight bytes moves the memory-bound collapsed convs enough
// that fp16 full-frame single-thread SESR-M5 x2 runs >= 1.3x fp32. The
// headline line prints that ratio explicitly. int8 (the served kInt8 path,
// calibrated once per net) rides along as the other deployment precision.
//
// Knobs: SESR_BENCH_FAST=1 shrinks the frame and iteration budget;
// SESR_BENCH_JSON=<dir> writes BENCH_fp16_inference.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "data/synthetic.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace sesr;
using Clock = std::chrono::steady_clock;

// Best-of-N wall time per call, in milliseconds.
template <typename Fn>
double best_ms(int iters, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("fp16 inference — precision x execution mode x threads",
                      "deployment precision study (fp16 storage, fp32 accumulate)");
  const std::int64_t edge = bench::fast_mode() ? 96 : 192;
  const int iters = bench::fast_mode() ? 2 : 5;
  Rng irng(3);
  const Tensor frame = data::synthesize_image(data::ImageFamily::kNatural, edge, edge, irng);
  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) {
    calib.push_back(data::synthesize_image(data::ImageFamily::kObjects, 48, 48, irng));
  }
  std::printf("frame: %lldx%lld LR, best of %d runs, isa %s\n\n",
              static_cast<long long>(edge), static_cast<long long>(edge), iters,
              bench::host_isa_string().c_str());
  std::printf("%-6s %-7s %-6s %8s %10s %9s\n", "net", "prec", "mode", "threads", "ms/frame",
              "vs fp32");

  bench::BenchJson json("fp16_inference");
  core::TilingOptions tiling;
  tiling.tile_h = tiling.tile_w = 64;
  double m5_fp32_t1 = 0.0;
  double m5_fp16_t1 = 0.0;

  const std::pair<const char*, core::SesrConfig> nets[] = {
      {"m5", core::sesr_m5(2)}, {"m11", core::sesr_m11(2)}, {"xl", core::sesr_xl(2)}};
  for (const auto& [net_name, config] : nets) {
    Rng rng(41);
    core::SesrNetwork network(config, rng);
    core::SesrInference inference(network);
    inference.calibrate_int8(calib);
    for (const char* mode : {"full", "tiled"}) {
      const bool tiled = std::string(mode) == "tiled";
      for (const int threads : {1, 4}) {
        ThreadPool::set_global_threads(static_cast<unsigned>(threads));
        double fp32_ms = 0.0;
        for (const char* prec : {"fp32", "fp16", "int8"}) {
          const std::string p(prec);
          inference.set_precision(p == "fp16"   ? core::InferencePrecision::kFp16
                                  : p == "int8" ? core::InferencePrecision::kInt8
                                                : core::InferencePrecision::kFp32);
          const double ms = best_ms(iters, [&] {
            volatile float v = (tiled ? core::upscale_tiled(inference, frame, tiling)
                                      : inference.upscale(frame))
                                   .raw()[0];
            (void)v;
          });
          if (p == "fp32") fp32_ms = ms;
          if (std::string(net_name) == "m5" && !tiled && threads == 1) {
            if (p == "fp32") m5_fp32_t1 = ms;
            if (p == "fp16") m5_fp16_t1 = ms;
          }
          std::printf("%-6s %-7s %-6s %8d %10.2f %8.2fx\n", net_name, prec, mode, threads, ms,
                      fp32_ms / ms);
          json.add(std::string(net_name) + "/" + prec + "/" + mode + "/t" +
                       std::to_string(threads),
                   ms * 1e6, 0.0, threads);
        }
      }
    }
    inference.set_precision(core::InferencePrecision::kFp32);
  }
  ThreadPool::set_global_threads(1);
  std::printf(
      "\nSESR-M5 x2 full-frame single-thread: fp16 %.2f ms vs fp32 %.2f ms = %.2fx "
      "(target >= 1.3x on AVX2+F16C hosts)\n",
      m5_fp16_t1, m5_fp32_t1, m5_fp32_t1 / m5_fp16_t1);
  return 0;
}
