// Request-level counters and latency percentiles for the sharded server.
//
// Workers record one sample per completed request (submit-to-completion,
// microseconds); counters are plain atomics. snapshot() is safe to call while
// traffic is in flight and computes percentiles over the samples so far.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sesr::serve {

// Immutable view of the server-wide counters (ShardedStats::total).
struct ServerStats {
  std::uint64_t submitted = 0;   // accepted (queued or served from cache)
  std::uint64_t rejected = 0;    // refused by the kReject overload policy
  std::uint64_t completed = 0;   // futures fulfilled (value or error)
  std::uint64_t failed = 0;      // futures fulfilled with an exception
  std::uint64_t batches = 0;     // requests dispatched: one per untiled frame or tile job
  std::uint64_t tiles = 0;       // TileTasks executed by the fan-out path
  std::uint64_t cache_hits = 0;  // requests fulfilled by the response cache
  std::uint64_t shed = 0;        // refused by SLO admission (typed ShedError)
  std::uint64_t degraded = 0;    // admitted on a cheaper route than requested
  std::uint64_t two_stage = 0;   // x4 requests served as x2 applied twice
  std::uint64_t video_frames = 0;        // frames submitted through submit_video
  std::uint64_t video_delta_frames = 0;  // of those, served by the tile-delta path
  std::uint64_t video_tiles_reused = 0;      // HR tiles spliced from session snapshots
  std::uint64_t video_tiles_recomputed = 0;  // dirty tiles re-upscaled by delta jobs
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double wall_seconds = 0.0;  // since server start
  double fps = 0.0;           // completed / wall_seconds
};

class StatsRecorder {
 public:
  // Latency samples and wall_seconds are pinned to the monotonic clock: a
  // wall-clock step (NTP, manual date change) must never produce negative or
  // inflated latencies.
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady, "serve stats require a monotonic clock");

  StatsRecorder() : start_(Clock::now()) {}

  void on_submitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_batch() { batches_.fetch_add(1, std::memory_order_relaxed); }
  void on_tile() { tiles_.fetch_add(1, std::memory_order_relaxed); }
  void on_failed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void on_cache_hit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void on_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void on_degraded() { degraded_.fetch_add(1, std::memory_order_relaxed); }
  void on_two_stage() { two_stage_.fetch_add(1, std::memory_order_relaxed); }
  void on_video_frame() { video_frames_.fetch_add(1, std::memory_order_relaxed); }
  void on_video_delta(std::uint64_t reused, std::uint64_t recomputed) {
    video_delta_frames_.fetch_add(1, std::memory_order_relaxed);
    video_tiles_reused_.fetch_add(reused, std::memory_order_relaxed);
    video_tiles_recomputed_.fetch_add(recomputed, std::memory_order_relaxed);
  }

  // One completed request; `enqueue` is its submit() timestamp.
  void on_completed(Clock::time_point enqueue);

  ServerStats snapshot() const;

 private:
  Clock::time_point start_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tiles_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> two_stage_{0};
  std::atomic<std::uint64_t> video_frames_{0};
  std::atomic<std::uint64_t> video_delta_frames_{0};
  std::atomic<std::uint64_t> video_tiles_reused_{0};
  std::atomic<std::uint64_t> video_tiles_recomputed_{0};
  mutable std::mutex mutex_;           // guards latency_us_
  std::vector<double> latency_us_;
};

// Per-network counters of the sharded server (one block per route). Updated
// lock-free from the submit path and the worker sessions; read via
// ShardedServer::stats().
struct RouteCounters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  // High-water mark of any worker replica's plan arena (bytes) after a unit,
  // i.e. the largest activation footprint this route has actually paid.
  std::atomic<std::uint64_t> peak_activation_bytes{0};
};

// Nearest-rank percentile: the smallest sample s such that at least p percent
// of the samples are <= s. p is clamped to [0, 100]; empty input returns 0;
// a single sample is every percentile of itself; p = 100 is the maximum (the
// upper rank is clamped in-range, never one past the end).
double percentile(std::vector<double> samples, double p);

}  // namespace sesr::serve
