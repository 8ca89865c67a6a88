// Policy knobs for the sharded server (src/serve/sharded_server.hpp).
//
// The server pushes each admitted (1, H, W, 1) Y-frame request straight into
// a bounded dispatch queue, and a pool of worker sessions takes units from it
// as soon as a worker is free. ServeOptions decides every trade-off in that
// pipeline: how deep each route's queue may grow, what happens when it is
// full, and which execution path (full-frame / tiled) each frame takes.
#pragma once

#include <cstdint>
#include <functional>

#include "core/tiled_inference.hpp"

namespace sesr::serve {

// What submit() does when the route's bounded queue is full.
enum class OverloadPolicy {
  kBlock,   // submit() waits for space (closed-loop producers)
  kReject,  // submit() fails the future immediately with QueueFullError
};

// SLO-aware admission control (serve/admission.hpp). Disabled by default:
// with p99_budget_us == 0 and no per-request deadlines, submit_admitted
// behaves exactly like submit. When a budget is set, each request is admitted
// against a per-route latency estimate (EWMA of shard service time scaled by
// the route's current in-system depth); a request whose estimate exceeds the
// budget is rewritten to a cheaper registered route (the degrade ladder:
// fp32 -> fp16 -> hybrid -> int8 at the same scale, and x4 -> the two-stage
// x2 path) or, when even the cheapest rung misses, shed with a typed
// ShedError instead of queueing unboundedly.
struct SloOptions {
  // Per-route p99 latency budget (microseconds). 0 disables SLO admission;
  // per-request deadlines still apply when callers pass them.
  std::int64_t p99_budget_us = 0;
  // Admit while estimate <= headroom * budget. Below 1.0 sheds early (keeps
  // slack for estimation error); above 1.0 tolerates mild overshoot.
  double headroom = 1.0;
  // Degrade before shedding: rewrite to a cheaper registered route whose
  // estimate fits the budget. With false, an over-budget request sheds at
  // once.
  bool allow_degrade = true;
};

// Which execution path a worker session uses for a frame.
enum class ExecMode {
  kFullFrame,  // SesrInference::upscale on the whole frame, one worker
  kTiled,      // cut into TileTasks, fanned out across all workers; the
               // bounded-memory path (activations scale with the tile)
  kAuto,       // frames >= tiled_threshold_pixels go kTiled, the rest kFullFrame
};

struct ServeOptions {
  // Per-route admission bound: at most queue_capacity logical requests wait
  // in a shard's dispatch lanes (a tiled frame counts once, not per tile).
  // `overload` decides what a submit at the bound does.
  std::size_t queue_capacity = 64;
  OverloadPolicy overload = OverloadPolicy::kBlock;

  // Worker sessions, each owning a collapsed-network replica.
  int workers = 4;

  ExecMode mode = ExecMode::kFullFrame;
  core::TilingOptions tiling;                        // kTiled / kAuto tile geometry
  std::int64_t tiled_threshold_pixels = 128 * 128;   // kAuto: LR pixels >= this tile

  // Response cache: maximum (route, LR frame) -> HR frame entries kept in the
  // bit-exact LRU cache (src/serve/response_cache.hpp). 0 disables caching.
  std::size_t cache_entries = 0;

  // SLO-aware admission control for submit_admitted / the TCP front end.
  SloOptions slo;

  // Video sessions: maximum live (route, session_id) snapshots kept for the
  // tile-delta path (serve/video_sessions.hpp), LRU-evicted beyond the bound.
  // 0 disables the table — submit_video still works but every frame runs the
  // full path.
  std::size_t video_sessions = 64;

  // Test seam: when set, every worker invokes this immediately before
  // executing a unit of work. The concurrency tests use it to hold workers on
  // a latch so overload and shutdown-while-full become deterministic.
  std::function<void()> worker_hook;
};

}  // namespace sesr::serve
