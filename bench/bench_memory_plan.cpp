// Static activation memory plan vs the direct per-layer path: peak
// activation bytes and wall time per frame, SESR-M5 / M11 x2 at 1080p output
// (960x540 LR), fp32 and fp16, at 1 and 4 intra-op threads. A last row
// times the calibrated SESR-M5 x2 int8 route on a 1080p input (1920x1080
// LR) at 1 thread and prints its arena (plan_arena_bytes), the u8 carrier's
// speed and memory numbers in docs/PERFORMANCE.md.
//
// Two claims under test (docs/PERFORMANCE.md, "Execution plans"):
//  1. The liveness planner's packed arena holds peak activation memory to
//     <= 0.5x the direct path's sum of materialized layer outputs (SESR-M5
//     x2: the headline line prints the ratio explicitly).
//  2. Replaying the plan costs nothing: us/frame is within noise of the
//     direct path (the plan makes the identical kernel calls; only the
//     destination bytes differ), while the steady state drops to zero heap
//     allocations (tests/test_alloc.cpp holds it to exactly zero).
//
// Knobs: SESR_BENCH_FAST=1 shrinks the frame and iteration budget;
// SESR_BENCH_JSON=<dir> writes BENCH_memory_plan.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/plan/execution_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "data/synthetic.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace sesr;
using Clock = std::chrono::steady_clock;

template <typename Fn>
double best_us(int iters, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us < best) best = us;
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("memory plan — packed activation arena vs direct per-layer path",
                      "execution-plan compiler study (peak bytes + replay overhead)");
  const std::int64_t lr_h = bench::fast_mode() ? 135 : 540;
  const std::int64_t lr_w = bench::fast_mode() ? 240 : 960;
  const int iters = bench::fast_mode() ? 2 : 5;
  Rng irng(7);
  const Tensor frame = data::synthesize_image(data::ImageFamily::kNatural, lr_h, lr_w, irng);
  std::printf("frame: %lldx%lld LR (%lldx%lld HR), best of %d runs, isa %s\n\n",
              static_cast<long long>(lr_h), static_cast<long long>(lr_w),
              static_cast<long long>(lr_h * 2), static_cast<long long>(lr_w * 2), iters,
              bench::host_isa_string().c_str());
  std::printf("%-6s %-6s %8s %12s %12s %7s %12s %12s %8s\n", "net", "prec", "threads",
              "planned us", "direct us", "delta", "arena KiB", "direct KiB", "ratio");

  bench::BenchJson json("memory_plan");
  double m5_ratio = 0.0;
  double m5_delta = 0.0;

  const std::pair<const char*, core::SesrConfig> nets[] = {{"m5", core::sesr_m5(2)},
                                                           {"m11", core::sesr_m11(2)}};
  for (const auto& [net_name, config] : nets) {
    Rng rng(41);
    core::SesrNetwork network(config, rng);
    core::SesrInference inference(network);
    for (const char* prec : {"fp32", "fp16"}) {
      inference.set_precision(std::string(prec) == "fp16" ? core::InferencePrecision::kFp16
                                                          : core::InferencePrecision::kFp32);
      // Peak bytes are thread- and timing-independent: the compiled plan's
      // packed arena vs materializing every fused step's output at once
      // (what the direct path allocates while a frame is in flight).
      const core::plan::ExecutionPlan plan =
          core::plan::ExecutionPlan::compile(inference, lr_h, lr_w);
      const double planned_bytes = static_cast<double>(plan.peak_activation_bytes());
      std::int64_t direct_elems = 0;
      for (const core::plan::PlanStep& step : plan.steps()) {
        direct_elems += step.op.output_elements();
      }
      // fp16 counts every direct output at 2 bytes although the tail stages
      // stay float — that flatters the direct side, so the ratio printed is
      // an upper bound on the planner's advantage, never an inflated one.
      const double direct_bytes =
          static_cast<double>(direct_elems) * (std::string(prec) == "fp16" ? 2.0 : 4.0);
      const double ratio = planned_bytes / direct_bytes;
      for (const int threads : {1, 4}) {
        ThreadPool::set_global_threads(static_cast<unsigned>(threads));
        // One untimed call compiles the plan and grows the arena to the
        // shape, so every timed call replays a warm plan.
        (void)inference.upscale(frame);
        const double planned_us = best_us(iters, [&] {
          volatile float v = inference.upscale(frame).raw()[0];
          (void)v;
        });
        const double direct_us = best_us(iters, [&] {
          volatile float v = inference.upscale_direct(frame).raw()[0];
          (void)v;
        });
        const double delta = (direct_us - planned_us) / direct_us * 100.0;
        if (std::string(net_name) == "m5" && std::string(prec) == "fp32" && threads == 1) {
          m5_ratio = ratio;
          m5_delta = delta;
        }
        std::printf("%-6s %-6s %8d %12.0f %12.0f %+5.1f%% %12.0f %12.0f %8.2f\n", net_name, prec,
                    threads, planned_us, direct_us, delta, planned_bytes / 1024.0,
                    direct_bytes / 1024.0, ratio);
        json.add(std::string(net_name) + "/" + prec + "/planned/t" + std::to_string(threads),
                 planned_us * 1e3, 0.0, threads);
        json.add(std::string(net_name) + "/" + prec + "/direct/t" + std::to_string(threads),
                 direct_us * 1e3, 0.0, threads);
      }
      json.add(std::string(net_name) + "/" + prec + "/peak_ratio", ratio, 0.0, 1);
    }
    inference.set_precision(core::InferencePrecision::kFp32);
  }
  ThreadPool::set_global_threads(1);
  std::printf(
      "\nSESR-M5 x2 1080p fp32: planned arena = %.2fx the direct sum of layer outputs "
      "(target <= 0.5x), replay overhead %+.1f%% (target within 2%%)\n",
      m5_ratio, m5_delta);

  // int8 at 1080p input, calibrated on three 48x48 frames, 1 thread.
  const std::int64_t hd_h = bench::fast_mode() ? 270 : 1080;
  const std::int64_t hd_w = bench::fast_mode() ? 480 : 1920;
  Rng rng(41);
  core::SesrNetwork network(core::sesr_m5(2), rng);
  core::SesrInference int8(network);
  std::vector<Tensor> calibration;
  for (int i = 0; i < 3; ++i) {
    calibration.push_back(data::synthesize_image(data::ImageFamily::kNatural, 48, 48, irng));
  }
  int8.calibrate_int8(calibration);
  int8.set_precision(core::InferencePrecision::kInt8);
  const Tensor hd = data::synthesize_image(data::ImageFamily::kNatural, hd_h, hd_w, irng);
  Tensor hd_out(1, hd_h * 2, hd_w * 2, 1);
  int8.upscale_into(hd, hd_out);  // compile the plan and grow the arenas
  const double int8_us = best_us(iters, [&] { int8.upscale_into(hd, hd_out); });
  const double arena_mib = static_cast<double>(int8.plan_arena_bytes()) / (1024.0 * 1024.0);
  std::printf("SESR-M5 x2 int8 %lldx%lld LR, 1 thread: planned %.1f ms, arena %.1f MiB\n",
              static_cast<long long>(hd_h), static_cast<long long>(hd_w), int8_us / 1e3,
              arena_mib);
  json.add("m5/int8_hd/planned/t1", int8_us * 1e3, 0.0, 1);
  json.add("m5/int8_hd/arena_mib", arena_mib, 0.0, 1);
  return 0;
}
