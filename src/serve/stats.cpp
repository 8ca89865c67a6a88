#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace sesr::serve {

void StatsRecorder::on_completed(Clock::time_point enqueue) {
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - enqueue).count();
  std::lock_guard<std::mutex> lock(mutex_);
  latency_us_.push_back(us);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const std::size_t n = samples.size();
  // Nearest rank: ceil(p/100 * n), computed with a half-ULP guard. Without
  // it the binary representation of p/100 pushes exact products past their
  // integer (0.95 * 20 evaluates to 19.000000000000004, whose ceil selects
  // rank 20 — the max — instead of rank 19).
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);  // p=0 floors to the minimum; p=100 stays in range
  const std::size_t index = rank - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

ServerStats StatsRecorder::snapshot() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.tiles = tiles_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.two_stage = two_stage_.load(std::memory_order_relaxed);
  s.video_frames = video_frames_.load(std::memory_order_relaxed);
  s.video_delta_frames = video_delta_frames_.load(std::memory_order_relaxed);
  s.video_tiles_reused = video_tiles_reused_.load(std::memory_order_relaxed);
  s.video_tiles_recomputed = video_tiles_recomputed_.load(std::memory_order_relaxed);
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = latency_us_;
  }
  s.completed = samples.size();
  s.p50_us = percentile(samples, 50.0);
  s.p95_us = percentile(samples, 95.0);
  s.p99_us = percentile(samples, 99.0);
  s.max_us = samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
  s.wall_seconds = std::chrono::duration<double>(Clock::now() - start_).count();
  s.fps = s.wall_seconds > 0.0 ? static_cast<double>(s.completed) / s.wall_seconds : 0.0;
  return s;
}

}  // namespace sesr::serve
