// Static activation memory plan vs the direct per-layer path: peak
// activation bytes and wall time per frame, SESR-M5 / M11 x2 at 1080p output
// (960x540 LR), fp32 and fp16, at 1 and 4 intra-op threads.
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
  return 0;
}
