#include "serve/sharded_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/video_session.hpp"
#include "serve/clock.hpp"

namespace sesr::serve {

namespace {

void validate(const ServeOptions& o, const NetworkRegistry& registry) {
  if (registry.empty()) {
    throw std::invalid_argument("ShardedServer: registry has no networks");
  }
  if (o.workers < 1) throw std::invalid_argument("ShardedServer: workers must be >= 1");
  if (o.queue_capacity < 1) {
    throw std::invalid_argument("ShardedServer: queue_capacity must be >= 1");
  }
  if ((o.mode == ExecMode::kTiled || o.mode == ExecMode::kAuto) &&
      (o.tiling.tile_h < 1 || o.tiling.tile_w < 1)) {
    throw std::invalid_argument("ShardedServer: tile dims must be positive");
  }
}

// Monotonic high-water update of a route's observed peak arena bytes.
void record_peak(std::atomic<std::uint64_t>& peak, std::uint64_t bytes) {
  std::uint64_t prev = peak.load(std::memory_order_relaxed);
  while (prev < bytes &&
         !peak.compare_exchange_weak(prev, bytes, std::memory_order_relaxed)) {
  }
}

// Resolve a request on the submit path (before it was ever queued): fail the
// promise, fire the completion hook. The caller handles inflight accounting.
void resolve_rejected(FrameRequest& request, std::exception_ptr error) {
  request.promise.set_exception(std::move(error));
  if (request.done_hook) request.done_hook();
}

}  // namespace

ShardedServer::ShardedServer(const NetworkRegistry& registry, ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_entries),
      sessions_(options_.video_sessions),
      dispatch_(registry.size(), options_.queue_capacity),
      admission_(registry.entries(), options_.slo, options_.workers) {
  validate(options_, registry);
  for (const RegisteredNetwork& entry : registry.entries()) {
    auto shard = std::make_unique<Shard>();
    shard->index = shards_.size();
    shard->net = entry;
    for (int i = 0; i < options_.workers; ++i) {
      shard->sessions.push_back(std::make_unique<WorkerSession>(entry.checkpoint));
      // Each replica rounds its own fp16 weight cache before the worker
      // threads start, so serving never hits the lazy conversion path.
      shard->sessions.back()->network.set_precision(entry.key.precision);
    }
    route_index_.emplace(route_string(entry.key), shard->index);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    for (auto& session : shard->sessions) {
      session->thread =
          std::thread([this, sh = shard.get(), s = session.get()] { worker_loop(*sh, *s); });
    }
  }
}

ShardedServer::~ShardedServer() { shutdown(); }

std::int64_t ShardedServer::in_system(std::size_t shard) const {
  const RouteCounters& c = shards_[shard]->counters;
  const auto submitted = c.submitted.load(std::memory_order_relaxed);
  const auto resolved = c.completed.load(std::memory_order_relaxed) +
                        c.failed.load(std::memory_order_relaxed);
  return submitted > resolved ? static_cast<std::int64_t>(submitted - resolved) : 0;
}

std::future<Tensor> ShardedServer::submit(const RouteKey& route, Tensor frame) {
  return submit_admitted(route, std::move(frame)).future;
}

ShardedServer::Admitted ShardedServer::admit(const RouteKey& route, Tensor frame,
                                             SubmitOptions& opts) {
  Admitted a;
  FrameRequest& request = a.request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.frame = std::move(frame);
  request.enqueue_time = ServeClock::now();
  if (opts.deadline_us > 0) {
    request.deadline =
        saturating_deadline(request.enqueue_time, std::chrono::microseconds(opts.deadline_us));
  }
  request.done_hook = std::move(opts.done_hook);
  a.result.future = request.promise.get_future();
  a.result.served_route = route_string(route);

  const Shape& s = request.frame.shape();
  if (s.n() != 1 || s.c() != 1 || s.h() < 1 || s.w() < 1) {
    resolve_rejected(request, std::make_exception_ptr(std::invalid_argument(
                                  "ShardedServer: submit expects a (1, H, W, 1) Y frame")));
    return a;
  }
  const auto it = route_index_.find(a.result.served_route);
  if (it == route_index_.end()) {
    resolve_rejected(request, std::make_exception_ptr(UnknownRouteError(a.result.served_route)));
    return a;
  }
  Shard* shard = shards_[it->second].get();

  // Drain gate. The increment precedes the flag check (both seq_cst): either
  // this submitter observes draining/closed and backs out, or the drainer's
  // wait_zero() observes the increment and waits for this request.
  inflight_.add();
  const bool closed = closed_.load(std::memory_order_seq_cst);
  if (closed || draining_.load(std::memory_order_seq_cst)) {
    inflight_.done();
    resolve_rejected(request, closed ? std::make_exception_ptr(ServerClosedError())
                                     : std::make_exception_ptr(ServerDrainingError()));
    return a;
  }

  // SLO admission: shed here, before queueing; the callers apply a degrade.
  const std::int64_t deadline_budget =
      opts.deadline_us > 0
          ? std::max<std::int64_t>(1, remaining_budget_us(request.enqueue_time, request.deadline))
          : 0;
  a.decision = admission_.admit(shard->index, deadline_budget,
                                [this](std::size_t idx) { return in_system(idx); });
  if (a.decision.action == AdmissionController::Action::kShed) {
    stats_.on_shed();
    inflight_.done();
    resolve_rejected(request, std::make_exception_ptr(
                                  ShedError(a.decision.estimate_us, a.decision.budget_us)));
    a.result.shed = true;
    return a;
  }
  request.inflight = &inflight_;
  request.admission = &admission_;
  bind(*shard, request);
  a.shard = shard;
  return a;
}

void ShardedServer::bind(Shard& shard, FrameRequest& request) {
  request.route = &shard.counters;
  request.route_id = shard.index;
  request.admit_route = shard.index;
}

void ShardedServer::complete_on_submit(Shard& shard, FrameRequest& request, Tensor output) {
  stats_.on_submitted();
  shard.counters.submitted.fetch_add(1, std::memory_order_relaxed);
  complete_request(request, std::move(output), stats_);
}

AdmitResult ShardedServer::submit_admitted(const RouteKey& route, Tensor frame,
                                           SubmitOptions opts) {
  Admitted a = admit(route, std::move(frame), opts);
  Shard* shard = a.shard;
  if (shard == nullptr) return std::move(a.result);

  using Action = AdmissionController::Action;
  if (a.decision.action != Action::kAdmit) {  // kDegrade or kDegradeTwoStage
    shard = shards_[a.decision.route].get();
    bind(*shard, a.request);
    a.result.degraded = true;
    a.result.served_route = route_string(shard->net.key);
    stats_.on_degraded();
  }
  if (a.decision.action == Action::kDegradeTwoStage) {
    // Stage 1 hands its intermediate to the continuation instead of the
    // promise; the continuation enqueues stage 2 on the same x2 shard. The
    // response cache is bypassed: its entries are keyed by the executing
    // route, and a degraded output must never shadow the direct path.
    a.result.two_stage = true;
    stats_.on_two_stage();
    const std::size_t x2_shard = shard->index;
    a.request.continuation = [this, x2_shard](FrameRequest&& stage1, Tensor&& intermediate) {
      enqueue_second_stage(x2_shard, std::move(stage1), std::move(intermediate));
    };
  } else if (cache_.enabled()) {
    // Response cache: a hit never touches the pipeline — the stored output is
    // bit-identical to a cold run because the cache confirmed the LR bytes.
    if (std::optional<Tensor> hit = cache_.lookup(shard->index, a.request.frame)) {
      stats_.on_cache_hit();
      shard->counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
      complete_on_submit(*shard, a.request, *std::move(hit));
      return std::move(a.result);
    }
    a.request.cache = &cache_;
  }
  enqueue(*shard, a.request, opts.never_block);
  return std::move(a.result);
}

AdmitResult ShardedServer::submit_video(const RouteKey& route, Tensor frame,
                                        const VideoOptions& video, SubmitOptions opts) {
  // Shed only: a session pins its route. Serving one frame from a degraded
  // sibling would key the session's bit-history to a different network, so
  // kDegrade/kDegradeTwoStage admit on the requested route instead.
  Admitted a = admit(route, std::move(frame), opts);
  Shard* shard = a.shard;
  if (shard == nullptr) return std::move(a.result);
  FrameRequest& request = a.request;
  AdmitResult& result = a.result;

  stats_.on_video_frame();
  // Every video frame publishes its (LR, HR) pair on completion, re-priming
  // the session for the next frame. The response cache is bypassed: the
  // session table is the video reuse mechanism.
  request.video = &sessions_;
  request.video_session = video.session_id;
  request.video_seq = video.seq;

  // Tile-delta probe: an exact predecessor snapshot (seq - 1, same shape)
  // enables the delta path. The plan byte-compares every tile's haloed
  // footprint against the snapshot LR — tile-granular byte confirmation, so a
  // stale snapshot only makes tiles dirty, never splices a wrong pixel.
  const Shape& s = request.frame.shape();
  if (std::optional<VideoSessionTable::Snapshot> prev =
          sessions_.lookup_prev(shard->index, video.session_id, video.seq)) {
    if (prev->lr.shape() == s) {
      // The recompute halo must match the executed grid for kTiled (bitwise
      // per-tile equality needs the identical crop function); the full-frame
      // path needs the exact receptive-field radius.
      const std::int64_t halo =
          resolve_mode(s) == ExecMode::kTiled
              ? (options_.tiling.halo >= 0 ? options_.tiling.halo : shard->net.exact_halo)
              : shard->net.exact_halo;
      core::DeltaPlan plan = core::plan_tile_delta(prev->lr, request.frame, options_.tiling, halo);
      result.delta = true;
      result.tiles_total = plan.tasks.size();
      result.tiles_recomputed = plan.dirty_count;
      stats_.on_video_delta(plan.tasks.size() - plan.dirty_count, plan.dirty_count);
      if (plan.dirty_count == 0) {
        // Bitwise-identical frame: the previous HR output IS this frame's
        // output. Resolved synchronously like a cache hit; the completion
        // publishes it and advances the session to this seq.
        complete_on_submit(*shard, request, std::move(prev->hr));
        return std::move(result);
      }
      auto delta = std::make_shared<VideoDeltaPlan>();
      delta->total_tiles = plan.tasks.size();
      const std::int64_t scale = shard->net.config.scale;
      delta->output = Tensor(1, s.h() * scale, s.w() * scale, 1);
      core::splice_clean_tiles(delta->output, prev->hr, plan, scale);
      delta->dirty_tasks.reserve(plan.dirty_count);
      for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
        if (plan.dirty[i]) delta->dirty_tasks.push_back(plan.tasks[i]);
      }
      request.video_delta = std::move(delta);
    }
  }

  enqueue(*shard, request, opts.never_block);
  return std::move(result);
}

void ShardedServer::enqueue(Shard& shard, FrameRequest& request, bool never_block) {
  const OverloadPolicy policy = never_block ? OverloadPolicy::kReject : options_.overload;
  switch (dispatch(shard, request, policy)) {
    case FairDispatchQueue::PushResult::kAccepted:
      stats_.on_submitted();
      shard.counters.submitted.fetch_add(1, std::memory_order_relaxed);
      break;
    case FairDispatchQueue::PushResult::kFull:
      stats_.on_rejected();
      request.inflight = nullptr;
      inflight_.done();
      resolve_rejected(request, std::make_exception_ptr(QueueFullError()));
      break;
    case FairDispatchQueue::PushResult::kClosed:
      request.inflight = nullptr;
      inflight_.done();
      resolve_rejected(request, std::make_exception_ptr(ServerClosedError()));
      break;
  }
}

void ShardedServer::enqueue_second_stage(std::size_t shard_index, FrameRequest&& stage1,
                                         Tensor&& intermediate) {
  FrameRequest stage2;
  stage2.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  stage2.frame = std::move(intermediate);
  stage2.promise = std::move(stage1.promise);
  stage2.enqueue_time = stage1.enqueue_time;  // end-to-end latency spans both stages
  stage2.deadline = stage1.deadline;
  stage2.route = stage1.route;
  stage2.route_id = shard_index;
  stage2.admission = &admission_;
  stage2.admit_route = shard_index;
  stage2.inflight = stage1.inflight;
  stage2.done_hook = std::move(stage1.done_hook);

  const std::uint64_t lane = stage2.id;
  stats_.on_batch();
  Unit unit = std::move(stage2);
  // Weight 0: the logical request admitted once at submit time, and this runs
  // on a worker thread — it must never block on the shard bound. push only
  // fails after close(), which shutdown() reaches only once in-flight work
  // (including this continuation) has resolved; handle it anyway so no path
  // can abandon the promise. push restarts the service clock (dispatch_time).
  if (dispatch_.push(shard_index, lane, std::move(unit), 0) !=
      FairDispatchQueue::PushResult::kAccepted) {
    fail_request(std::get<FrameRequest>(unit), std::make_exception_ptr(ServerClosedError()),
                 stats_);
  }
}

ExecMode ShardedServer::resolve_mode(const Shape& shape) const {
  if (options_.mode != ExecMode::kAuto) return options_.mode;
  return shape.h() * shape.w() >= options_.tiled_threshold_pixels ? ExecMode::kTiled
                                                                  : ExecMode::kFullFrame;
}

FairDispatchQueue::PushResult ShardedServer::dispatch(Shard& shard, FrameRequest& request,
                                                     OverloadPolicy policy) {
  const std::uint64_t lane = request.id;
  if (!request.video_delta && resolve_mode(request.frame.shape()) != ExecMode::kTiled) {
    Unit unit = std::move(request);
    const auto pushed = dispatch_.push(shard.index, lane, std::move(unit), 1, policy);
    if (pushed == FairDispatchQueue::PushResult::kAccepted) {
      stats_.on_batch();
    } else {
      request = std::move(std::get<FrameRequest>(unit));
    }
    return pushed;
  }
  auto job = std::make_shared<TiledJob>();
  if (std::shared_ptr<VideoDeltaPlan> plan = std::move(request.video_delta)) {
    // Only the dirty tiles the submit path planned; the clean regions are
    // already spliced into the plan's output.
    job->tasks = std::move(plan->dirty_tasks);
    job->output = std::move(plan->output);
  } else {
    // Large frames: one TiledJob whose units all share one dispatch lane, so
    // concurrent small requests interleave fairly.
    const Shape& s = request.frame.shape();
    const std::int64_t halo =
        options_.tiling.halo >= 0 ? options_.tiling.halo : shard.net.exact_halo;
    const std::int64_t scale = shard.net.config.scale;
    job->tasks = core::tile_grid(s.h(), s.w(), options_.tiling, halo);
    job->output = Tensor(1, s.h() * scale, s.w() * scale, 1);
  }
  job->remaining.store(static_cast<std::int64_t>(job->tasks.size()), std::memory_order_relaxed);
  job->request = std::move(request);
  // The job admits against the shard bound once, with its first tile; the
  // rest of its fan-out (weight 0) never waits and is never refused as full.
  const auto admitted = dispatch_.push(shard.index, lane, TileUnit{job, 0}, 1, policy);
  if (admitted != FairDispatchQueue::PushResult::kAccepted) {
    request = std::move(job->request);
    return admitted;
  }
  stats_.on_batch();
  for (std::size_t i = 1; i < job->tasks.size(); ++i) {
    if (dispatch_.push(shard.index, lane, TileUnit{job, i}, 0) !=
        FairDispatchQueue::PushResult::kAccepted) {
      // Dispatch closed mid-fan-out. shutdown() closes dispatch only after
      // every admitted request resolved, so this is defensive — but if it
      // ever fires, the request resolves with a typed error (promise, hook
      // and inflight all handled by fail_request), never a broken promise.
      // Tiles already pushed still execute; the failed flag keeps them from
      // completing the job twice.
      if (!job->failed.exchange(true, std::memory_order_acq_rel)) {
        fail_request(job->request, std::make_exception_ptr(ServerClosedError()), stats_);
      }
      break;
    }
  }
  return FairDispatchQueue::PushResult::kAccepted;
}

void ShardedServer::worker_loop(Shard& shard, WorkerSession& session) {
  Unit unit;
  while (dispatch_.pop(shard.index, unit)) {
    // Held across the unit AND the arena bookkeeping below: reload_routes
    // must not rebuild this replica between the promise resolving (which
    // releases the inflight token it waits on) and the last `network` touch.
    std::lock_guard<std::mutex> guard(session.busy);
    if (options_.worker_hook) options_.worker_hook();
    execute_unit(session, unit, stats_);
    record_peak(shard.counters.peak_activation_bytes,
                static_cast<std::uint64_t>(session.network.plan_arena_bytes()));
  }
}

void ShardedServer::begin_drain() {
  draining_.store(true, std::memory_order_seq_cst);
  inflight_.wait_zero();
}

void ShardedServer::resume() {
  if (closed_.load(std::memory_order_seq_cst)) {
    throw std::logic_error("ShardedServer::resume after shutdown");
  }
  draining_.store(false, std::memory_order_seq_cst);
}

void ShardedServer::reload_routes(const NetworkRegistry& registry) {
  if (closed_.load(std::memory_order_seq_cst)) {
    throw std::logic_error("ShardedServer::reload_routes after shutdown");
  }
  if (!draining_.load(std::memory_order_seq_cst)) {
    throw std::logic_error(
        "ShardedServer::reload_routes requires a drained server (call begin_drain first)");
  }
  // Drained means no ACCEPTED request in flight, but live traffic being
  // rejected right now still bumps the inflight counter for the length of its
  // drain-gate check. Those bumps resolve in microseconds; wait them out
  // instead of spuriously refusing the reload.
  inflight_.wait_zero();
  validate(options_, registry);
  if (registry.size() != shards_.size()) {
    throw std::invalid_argument("ShardedServer::reload_routes: route set must match");
  }
  const auto& entries = registry.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (route_string(entries[i].key) != route_string(shards_[i]->net.key)) {
      throw std::invalid_argument("ShardedServer::reload_routes: route set must match (got '" +
                                  route_string(entries[i].key) + "', shard " +
                                  std::to_string(i) + " serves '" +
                                  route_string(shards_[i]->net.key) + "')");
    }
  }
  // Drained: wait_zero above saw every request resolve, but a worker may
  // still be inside its per-unit tail (arena bookkeeping after fulfilling
  // the promise) — each session's `busy` mutex closes that window before its
  // replica is rebuilt. Traffic resumed after this call observes the new
  // weights through the queue mutexes.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Shard& shard = *shards_[i];
    shard.net = entries[i];
    for (auto& session : shard.sessions) {
      std::lock_guard<std::mutex> guard(session->busy);
      session->network = core::SesrInference(entries[i].checkpoint);
      session->network.set_precision(entries[i].key.precision);
    }
  }
  // Cached responses and video-session snapshots were computed by the old
  // weights; neither may serve (or splice into) post-reload outputs.
  cache_.clear();
  sessions_.clear();
}

void ShardedServer::shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Graceful drain first: every accepted request (including mid-flight tile
    // fan-outs and two-stage continuations) resolves before any queue closes,
    // so no promise ever reaches a closed dispatch.
    closed_.store(true, std::memory_order_seq_cst);
    inflight_.wait_zero();
    dispatch_.close();
    for (auto& shard : shards_) {
      for (auto& session : shard->sessions) {
        if (session->thread.joinable()) session->thread.join();
      }
    }
  });
}

ShardedStats ShardedServer::stats() const {
  ShardedStats s;
  s.total = stats_.snapshot();
  for (const auto& shard : shards_) {
    RouteStats r;
    r.route = route_string(shard->net.key);
    r.submitted = shard->counters.submitted.load(std::memory_order_relaxed);
    r.completed = shard->counters.completed.load(std::memory_order_relaxed);
    r.failed = shard->counters.failed.load(std::memory_order_relaxed);
    r.cache_hits = shard->counters.cache_hits.load(std::memory_order_relaxed);
    r.service_ewma_us = admission_.ewma_us(shard->index);
    r.peak_activation_bytes =
        shard->counters.peak_activation_bytes.load(std::memory_order_relaxed);
    s.per_route.push_back(std::move(r));
  }
  s.cache = cache_.stats();
  s.video = sessions_.stats();
  return s;
}

}  // namespace sesr::serve
