// Multi-network sharded serving front end.
//
//   submit(route, frame) / submit_admitted(route, frame, opts) / submit_video
//        │  route lookup · SLO admission (shed / degrade / two-stage rewrite)
//        │  response-cache probe (bit-exact hit -> immediate)
//        │  untiled frame -> one unit; tiled / video delta -> tile fan-out
//        ▼
//   ┌──────────── shared FairDispatchQueue ────────────┐  per-shard bound of
//   │ shard[m5:2:fp32] lanes   shard[m11:2:fp16] lanes │  queue_capacity logical
//   └──────────┬──────────────────────────┬────────────┘  requests, round-robin
//              ▼                          ▼               lanes per shard
//   worker sessions            worker sessions            (replicas of the shard's
//                                                         net, pinned to its precision)
//
// Each registered (network, scale, precision) route gets a SHARD: its lanes
// in the shared dispatch queue and `workers` sessions holding bit-exact
// replicas of that route's network. The submit path pushes every admitted
// request straight into the queue, where push() enforces the shard's bound
// and the overload policy; a free worker pops the next unit at once, so no
// request waits for a batch partner. The round-robin lane scheduler keeps a
// large frame's tile fan-out from starving small requests — see dispatch.hpp.
// The response cache sits in front of the pipeline: a hit is fulfilled on the
// submit path with an output that is bit-identical to a cold run (the cache
// stores and confirms the exact LR bytes; the audit pair
// `cached_vs_cold_serve` holds it to that).
//
// Admission (serve/admission.hpp) sits between route lookup and the queue:
// when ServeOptions::slo sets a p99 budget (or the request carries its own
// deadline), an over-budget request is rewritten to a cheaper registered
// route (precision downgrade, or x4 served as the x2 sibling twice) or shed
// with a typed ShedError. submit() with the default SloOptions behaves
// exactly as before.
//
// Lifecycle: RUNNING -> (begin_drain) DRAINING -> (resume) RUNNING
//                                   └-> reload_routes: swap checkpoints while
//                                       drained, then resume
//           any state -> (shutdown / destructor) CLOSED
//
// Draining stops admission (submits fail with typed ServerDrainingError) and
// blocks until every previously accepted request — including mid-flight tile
// fan-outs and two-stage continuations — has resolved its future. shutdown()
// drains first, then closes the dispatch queue and joins every worker: no accepted
// request is ever abandoned. Both are idempotent; the destructor calls
// shutdown().
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/admission.hpp"
#include "serve/dispatch.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/response_cache.hpp"
#include "serve/serve_options.hpp"
#include "serve/stats.hpp"
#include "serve/video_sessions.hpp"

namespace sesr::serve {

// Per-route counter snapshot inside ShardedStats.
struct RouteStats {
  std::string route;  // route_string of the shard's key
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  double service_ewma_us = 0.0;  // admission estimator (0 until warmed)
  // Largest per-replica activation arena observed while serving this route
  // (bytes, 0 until the first unit executes). A replica's arena grows to
  // exactly the largest unit it has run, so this is the
  // ExecutionPlan::peak_activation_bytes() of the largest frame or tile any
  // worker of the route has run.
  std::uint64_t peak_activation_bytes = 0;
};

struct ShardedStats {
  ServerStats total;                  // aggregate across every shard
  std::vector<RouteStats> per_route;  // registration order
  CacheStats cache;
  VideoSessionStats video;
};

// Per-request knobs of submit_admitted.
struct SubmitOptions {
  // Remaining latency budget of this request in microseconds; 0 = none.
  // Admission shrinks the SLO budget to it (expiry is advisory: an admitted
  // request is never cancelled mid-execution).
  std::int64_t deadline_us = 0;
  // Fires after the future resolves (value or exception), on the fulfilling
  // thread; future.get() cannot block by then. The TCP front end's bridge
  // back into its IO loop. Fires on every resolution path, including
  // synchronous rejections.
  std::function<void()> done_hook;
  // Overrides OverloadPolicy::kBlock with kReject for this request: a caller
  // that must never park a thread (the network IO loop) gets QueueFullError
  // instead of waiting for queue space.
  bool never_block = false;
};

// What admission decided for one submit_admitted call.
struct AdmitResult {
  std::future<Tensor> future;
  std::string served_route;  // route actually executing (differs when degraded)
  bool degraded = false;     // rewritten to a cheaper route
  bool two_stage = false;    // x4 served as x2 applied twice
  bool shed = false;         // future fails with ShedError
  // Video sessions (submit_video only): the tile-delta path engaged — the
  // session's previous frame was found, and only `tiles_recomputed` of
  // `tiles_total` grid tiles are being re-upscaled (the rest splice from the
  // previous HR output, bit-identical to a full re-upscale).
  bool delta = false;
  std::size_t tiles_total = 0;
  std::size_t tiles_recomputed = 0;
};

// Per-request video-session identity of submit_video. The client owns both
// fields: session_id names the stream, seq must increase by exactly 1 per
// frame for the delta path to engage (any gap falls back to a full
// re-upscale, which re-primes the session).
struct VideoOptions {
  std::uint64_t session_id = 0;
  std::uint64_t seq = 0;
};

class ShardedServer {
 public:
  // Builds one shard per registry entry. The registry is snapshotted (its
  // checkpoints are copied into the shards), so it need not outlive the
  // server. `options` applies to every shard (workers, queue depth, mode,
  // tiling, overload, slo); each route's replicas run at the route's own
  // precision.
  ShardedServer(const NetworkRegistry& registry, ServeOptions options);
  ~ShardedServer();
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  // Enqueue a (1, H, W, 1) Y frame for the given route. The future resolves
  // to the upscaled frame, or to UnknownRouteError, QueueFullError (kReject
  // overload), ShedError (SLO admission), ServerDrainingError (while
  // draining), ServerClosedError (after shutdown), or the execution error.
  std::future<Tensor> submit(const RouteKey& route, Tensor frame);

  // submit() plus per-request deadline / completion hook / admission
  // visibility: the result reports whether the request was degraded to a
  // cheaper route, rewritten to the two-stage x2 path, or shed.
  AdmitResult submit_admitted(const RouteKey& route, Tensor frame, SubmitOptions opts = {});

  // Submit one frame of a video session. Bit-identical to submit_admitted's
  // output for the same frame; when the session's previous frame (seq - 1,
  // same shape) is live in the session table, only the tiles whose haloed LR
  // footprints changed are re-upscaled and the rest splice from the previous
  // HR output. Differences from submit_admitted: the degrade ladder is
  // skipped (a session pins its route — serving one frame from a cheaper
  // network would fork the stream's bit-history; shedding still applies), and
  // the response cache is bypassed (the session table is the reuse
  // mechanism). Every completed frame re-primes the session.
  AdmitResult submit_video(const RouteKey& route, Tensor frame, const VideoOptions& video,
                           SubmitOptions opts = {});

  // Stop admitting (submits fail with ServerDrainingError) and block until
  // every accepted request has resolved. Threads stay up; resume() reopens
  // admission. Safe to call repeatedly.
  void begin_drain();
  void resume();
  bool draining() const { return draining_.load(std::memory_order_seq_cst); }

  // Swap every shard's checkpoint for the matching route in `registry` (the
  // route set must be identical, same registration order). Requires a drained
  // server: call begin_drain() first, reload, then resume(). Worker replicas
  // are rebuilt from the new checkpoints and the response cache is cleared —
  // cached outputs of the old weights must not survive the swap.
  void reload_routes(const NetworkRegistry& registry);

  // Drain in-flight requests, complete every accepted future, stop all
  // threads. Idempotent; called by the destructor.
  void shutdown();

  ShardedStats stats() const;
  const ServeOptions& options() const { return options_; }
  std::size_t shard_count() const { return shards_.size(); }
  const AdmissionController& admission() const { return admission_; }

 private:
  struct Shard {
    std::size_t index = 0;
    RegisteredNetwork net;
    std::vector<std::unique_ptr<WorkerSession>> sessions;
    RouteCounters counters;
  };

  // What the shared admission step hands to submit_admitted / submit_video.
  struct Admitted {
    FrameRequest request;
    AdmitResult result;
    Shard* shard = nullptr;  // the requested route's shard; nullptr = resolved
    AdmissionController::Decision decision;
  };

  // The admission step of both submit calls: builds the request (id, enqueue
  // time, deadline, done_hook) and its result, checks the (1, H, W, 1) shape,
  // looks up the route, passes the drain/closed gate and asks the admission
  // controller. A refused or shed request comes back resolved with its typed
  // error and no shard. An admitted one holds an inflight token and is bound
  // to the requested shard; applying a degrade decision is the caller's job.
  Admitted admit(const RouteKey& route, Tensor frame, SubmitOptions& opts);
  // Point the request's counters and admission sample at the executing shard.
  static void bind(Shard& shard, FrameRequest& request);
  // Resolve an admitted request on the submit path (cache hit, zero-dirty
  // video frame): count it as submitted, then run complete_request.
  void complete_on_submit(Shard& shard, FrameRequest& request, Tensor output);
  ExecMode resolve_mode(const Shape& shape) const;
  void worker_loop(Shard& shard, WorkerSession& session);
  std::int64_t in_system(std::size_t shard) const;
  // Push an admitted request into the shard's dispatch lanes and count it, or
  // resolve it with QueueFullError / ServerClosedError when push refuses it.
  void enqueue(Shard& shard, FrameRequest& request, bool never_block);
  // The push itself: an untiled frame as one unit; a kTiled frame or a video
  // delta plan as a TiledJob whose first unit admits with weight 1 and whose
  // remaining units follow with weight 0. On kFull/kClosed `request` still
  // holds the refused request.
  FairDispatchQueue::PushResult dispatch(Shard& shard, FrameRequest& request,
                                         OverloadPolicy policy);
  // Stage 2 of a two-stage degrade: wrap the intermediate into a fresh
  // request carrying stage 1's promise and push it straight to the x2
  // shard's dispatch (weight 0 — never blocks a worker thread).
  void enqueue_second_stage(std::size_t shard_index, FrameRequest&& stage1, Tensor&& intermediate);

  ServeOptions options_;
  StatsRecorder stats_;
  ResponseCache cache_;
  VideoSessionTable sessions_;
  FairDispatchQueue dispatch_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, std::size_t> route_index_;  // route_string -> shard
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> closed_{false};
  InflightTracker inflight_;
  std::once_flag shutdown_once_;
};

}  // namespace sesr::serve
