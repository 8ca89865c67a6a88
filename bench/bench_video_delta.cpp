// bench_video_delta — throughput of the video-session tile-delta path
// against full per-frame re-upscale, over the seeded synthetic temporal
// patterns (static / pan / cut) x all four inference precisions.
//
// Each cell replays the same sequence twice through one ShardedServer
// configuration: once as a video session (submit_video, consecutive seqs, so
// the tile-delta path engages from frame 2 on) and once as plain submits
// (always the full pipeline; response cache off). Every frame's delta output
// is byte-compared against the full output — the speedup only counts if the
// bytes are unchanged, mirroring the zero-tolerance `video_delta_vs_full`
// audit pair.
//
// Acceptance bar (ROADMAP, "Video / temporal workload with delta-tile
// reuse"): >= 5x throughput on the mostly-static sequence at unchanged
// output bytes. The bar is asserted — a violation exits nonzero so CI can
// gate on it. Pan is the adversarial floor (every tile dirties: expect ~1x,
// the delta overhead showing up as a few percent), cut sits between.
//
// Knobs: SESR_BENCH_FAST=1 shrinks the frame budget; SESR_BENCH_JSON=<dir>
// writes machine-readable rows (fps per path plus the speedup ratio).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "data/video.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace sesr;
using Clock = std::chrono::steady_clock;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.cache_entries = 0;  // the full-path reference must recompute
  options.video_sessions = 4;
  options.mode = serve::ExecMode::kAuto;
  options.tiling.tile_h = 32;
  options.tiling.tile_w = 32;
  options.tiled_threshold_pixels = 64 * 64;  // the bench frames tile
  return options;
}

struct Cell {
  double delta_fps = 0.0;
  double full_fps = 0.0;
  std::uint64_t tiles_reused = 0;
  std::uint64_t tiles_total = 0;
  bool bytes_match = true;
};

Cell run_cell(const serve::NetworkRegistry& registry, const serve::RouteKey& route,
              const std::vector<Tensor>& frames) {
  Cell cell;
  // Full path first: plain submits through a fresh server, serial closed loop.
  std::vector<Tensor> full_outputs;
  {
    serve::ShardedServer server(registry, serve_options());
    const auto start = Clock::now();
    for (const Tensor& frame : frames) full_outputs.push_back(server.submit(route, frame).get());
    cell.full_fps = static_cast<double>(frames.size()) /
                    std::chrono::duration<double>(Clock::now() - start).count();
    server.shutdown();
  }
  // Delta path: one session, consecutive seqs, serial closed loop so every
  // frame's predecessor is published before the next plan runs.
  {
    serve::ShardedServer server(registry, serve_options());
    const auto start = Clock::now();
    std::vector<Tensor> outputs;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      serve::VideoOptions video;
      video.session_id = 1;
      video.seq = i + 1;
      serve::AdmitResult admitted = server.submit_video(route, frames[i], video);
      outputs.push_back(admitted.future.get());
      if (admitted.delta) {
        cell.tiles_reused += admitted.tiles_total - admitted.tiles_recomputed;
        cell.tiles_total += admitted.tiles_total;
      }
    }
    cell.delta_fps = static_cast<double>(frames.size()) /
                     std::chrono::duration<double>(Clock::now() - start).count();
    server.shutdown();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (!bitwise_equal(outputs[i], full_outputs[i])) cell.bytes_match = false;
    }
  }
  return cell;
}

}  // namespace

int main() {
  bench::print_header("Video-session delta-tile reuse vs full re-upscale",
                      "deployment direction of Secs. 1/6 (real-time SR on video traffic)");
  ThreadPool::set_global_threads(1);

  const std::int64_t frames = bench::fast_mode() ? 12 : 48;
  const std::int64_t lr = 96;  // LR edge; 3x3 grid of 32x32 tiles
  const std::uint64_t seed = 0x51DE0;

  // One registry with all four precision routes over the same weights.
  Rng rng(seed);
  core::SesrNetwork network(core::sesr_m5(2), rng);
  core::SesrInference inference(network);
  {
    Rng calib_rng(seed ^ 0xC0FFEEULL);
    std::vector<Tensor> calib;
    for (int i = 0; i < 4; ++i) {
      Tensor frame(1, 48, 48, 1);
      frame.fill_uniform(calib_rng, 0.0F, 1.0F);
      calib.push_back(std::move(frame));
    }
    inference.calibrate_int8(calib);
    std::vector<Tensor> hr;
    inference.set_precision(core::InferencePrecision::kFp32);
    for (const Tensor& frame : calib) hr.push_back(inference.upscale(frame));
    core::plan_hybrid_precision(inference, calib, hr);
  }
  const core::InferencePrecision precisions[] = {
      core::InferencePrecision::kFp32, core::InferencePrecision::kFp16,
      core::InferencePrecision::kInt8, core::InferencePrecision::kHybrid};
  const char* precision_names[] = {"fp32", "fp16", "int8", "hybrid"};
  serve::NetworkRegistry registry;
  for (std::size_t p = 0; p < 4; ++p) {
    registry.add(serve::RouteKey{"m5", 2, precisions[p]}, inference);
  }

  const data::VideoPattern patterns[] = {data::VideoPattern::kStatic, data::VideoPattern::kPan,
                                         data::VideoPattern::kCut};

  bench::BenchJson json("video_delta");
  std::printf("\n%-10s %-8s %12s %12s %9s %14s %6s\n", "pattern", "prec", "full fps", "delta fps",
              "speedup", "tiles reused", "bytes");
  double static_worst_speedup = 0.0;
  bool first_static = true;
  bool all_bytes_match = true;
  for (const data::VideoPattern pattern : patterns) {
    data::VideoSequenceOptions vopts;
    vopts.pattern = pattern;
    vopts.frames = frames;
    vopts.h = lr;
    vopts.w = lr;
    const std::vector<Tensor> sequence = data::synthesize_video(vopts, seed);
    for (std::size_t p = 0; p < 4; ++p) {
      const serve::RouteKey route{"m5", 2, precisions[p]};
      const Cell cell = run_cell(registry, route, sequence);
      const double speedup = cell.full_fps > 0.0 ? cell.delta_fps / cell.full_fps : 0.0;
      const std::string name =
          std::string(data::to_string(pattern)) + ":" + precision_names[p];
      std::printf("%-10s %-8s %12.1f %12.1f %8.2fx %8llu/%-5llu %6s\n",
                  data::to_string(pattern).c_str(), precision_names[p], cell.full_fps,
                  cell.delta_fps, speedup, static_cast<unsigned long long>(cell.tiles_reused),
                  static_cast<unsigned long long>(cell.tiles_total),
                  cell.bytes_match ? "ok" : "DIFF");
      json.add("video/" + name + ":full_fps", cell.full_fps, 0.0, 1);
      json.add("video/" + name + ":delta_fps", cell.delta_fps, 0.0, 1);
      json.add("video/" + name + ":speedup", speedup, 0.0, 1);
      if (!cell.bytes_match) all_bytes_match = false;
      if (pattern == data::VideoPattern::kStatic) {
        static_worst_speedup =
            first_static ? speedup : std::min(static_worst_speedup, speedup);
        first_static = false;
      }
    }
  }

  std::printf("\nmostly-static speedup (worst precision): %.2fx (bar >= 5x, bytes unchanged)\n",
              static_worst_speedup);
  if (!all_bytes_match) {
    std::printf("FAIL: delta output bytes diverged from the full re-upscale\n");
    return 1;
  }
  if (static_worst_speedup < 5.0) {
    std::printf("FAIL: static-sequence speedup below the 5x bar\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
