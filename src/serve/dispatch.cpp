#include "serve/dispatch.hpp"

#include <algorithm>
#include <utility>

#include "core/video_session.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/response_cache.hpp"
#include "serve/video_sessions.hpp"

namespace sesr::serve {

// ------------------------------------------------------- FairDispatchQueue

FairDispatchQueue::FairDispatchQueue(std::size_t shard_count, std::size_t shard_capacity)
    : shard_capacity_(std::max<std::size_t>(1, shard_capacity)), shards_(shard_count) {}

FairDispatchQueue::PushResult FairDispatchQueue::push(std::size_t shard, std::uint64_t lane,
                                                      Unit&& unit, std::size_t weight,
                                                      OverloadPolicy policy) {
  std::unique_lock<std::mutex> lock(mutex_);
  ShardLanes& sl = shards_.at(shard);
  if (weight > 0 && policy == OverloadPolicy::kBlock) {
    not_full_.wait(lock, [&] { return closed_ || sl.depth < shard_capacity_; });
  }
  if (closed_) return PushResult::kClosed;
  if (weight > 0 && sl.depth >= shard_capacity_) return PushResult::kFull;  // kReject path
  if (auto* request = std::get_if<FrameRequest>(&unit)) {
    request->dispatch_time = ServeClock::now();
  } else if (weight > 0) {
    // A tile job's first unit: no worker can see the job before this push.
    std::get<TileUnit>(unit).job->request.dispatch_time = ServeClock::now();
  }
  auto it = sl.by_id.find(lane);
  if (it == sl.by_id.end()) {
    // A new logical request: schedule it ahead of lanes that already had a
    // turn (fresh lanes stay FIFO among themselves). Lane counts are bounded
    // by the shard capacity, so the linear scan stays cheap.
    auto pos = std::find_if(sl.rotation.begin(), sl.rotation.end(),
                            [](const Lane& l) { return l.served; });
    pos = sl.rotation.insert(pos, Lane{lane, false, {}});
    it = sl.by_id.emplace(lane, pos).first;
  }
  it->second->units.emplace_back(std::move(unit), weight);
  ++sl.units;
  sl.depth += weight;
  lock.unlock();
  not_empty_.notify_all();
  return PushResult::kAccepted;
}

bool FairDispatchQueue::pop(std::size_t shard, Unit& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  ShardLanes& sl = shards_.at(shard);
  not_empty_.wait(lock, [&] { return closed_ || sl.units > 0; });
  if (sl.units == 0) return false;  // closed and this shard drained
  Lane& lane = sl.rotation.front();
  out = std::move(lane.units.front().first);
  const std::size_t weight = lane.units.front().second;
  sl.depth -= weight;
  lane.units.pop_front();
  lane.served = true;
  --sl.units;
  if (lane.units.empty()) {
    sl.by_id.erase(lane.id);
    sl.rotation.pop_front();
  } else {
    // Round-robin: the served lane goes to the back of the rotation.
    sl.rotation.splice(sl.rotation.end(), sl.rotation, sl.rotation.begin());
  }
  lock.unlock();
  if (weight > 0) not_full_.notify_all();
  return true;
}

void FairDispatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::size_t FairDispatchQueue::size(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_.at(shard).depth;
}

// ------------------------------------------------------------- unit execution

namespace {

// One observed service sample (dispatch-queue entry to resolution) into the
// admission EWMA. Recorded on success AND failure — a failing route still
// consumed a worker for that long.
void record_service(FrameRequest& request) {
  if (request.admission == nullptr) return;
  if (request.dispatch_time == ServeClock::time_point{}) return;  // never dispatched
  request.admission->record(
      request.admit_route,
      std::chrono::duration_cast<std::chrono::microseconds>(ServeClock::now() -
                                                            request.dispatch_time)
          .count());
}

// Last words of a resolved request: the external completion callback, then
// the drain counter. The promise is already fulfilled, so a done_hook that
// calls future.get() cannot block, and a drainer woken by inflight->done()
// observes the fully resolved request.
void finish_request(FrameRequest& request) {
  if (request.done_hook) request.done_hook();
  if (request.inflight != nullptr) request.inflight->done();
}

}  // namespace

// Completion bookkeeping shared by the frame and tile paths and the submit
// path's synchronous successes. Every side effect — cache insert or session
// publish, route counter, stats sample — precedes set_value, so a caller whose
// future has resolved observes the completion in stats() and gets a cache hit
// on the next identical submission.
void complete_request(FrameRequest& request, Tensor output, StatsRecorder& stats) {
  record_service(request);
  if (request.continuation) {
    // Two-stage degrade: stage 1 done; the continuation enqueues stage 2,
    // which carries the promise / done_hook / inflight to final resolution.
    auto continuation = std::move(request.continuation);
    request.continuation = nullptr;
    continuation(std::move(request), std::move(output));
    return;
  }
  if (request.cache != nullptr) request.cache->insert(request.route_id, request.frame, output);
  if (request.video != nullptr) {
    // Session publication precedes set_value for the same reason the cache
    // insert does: a closed-loop client that observed this completion must
    // find the snapshot when it submits the next frame.
    request.video->publish(request.route_id, request.video_session, request.video_seq,
                           request.frame, output);
  }
  if (request.route != nullptr) request.route->completed.fetch_add(1, std::memory_order_relaxed);
  stats.on_completed(request.enqueue_time);
  request.promise.set_value(std::move(output));
  finish_request(request);
}

void fail_request(FrameRequest& request, const std::exception_ptr& error, StatsRecorder& stats) {
  record_service(request);
  if (request.route != nullptr) request.route->failed.fetch_add(1, std::memory_order_relaxed);
  stats.on_failed();
  request.promise.set_exception(error);
  finish_request(request);
}

namespace {

void run_frame(WorkerSession& session, FrameRequest& request, StatsRecorder& stats) {
  Tensor output;
  try {
    output = session.network.upscale(request.frame);
  } catch (...) {
    fail_request(request, std::current_exception(), stats);
    return;
  }
  complete_request(request, std::move(output), stats);
}

void run_tile(WorkerSession& session, TileUnit& unit, StatsRecorder& stats) {
  TiledJob& job = *unit.job;
  const core::TileTask& task = job.tasks[unit.task];
  try {
    const Tensor roi = core::upscale_tile(session.network, job.request.frame, task);
    core::paste_tile(job.output, roi, task, session.network.config().scale);
    stats.on_tile();
  } catch (...) {
    if (!job.failed.exchange(true, std::memory_order_acq_rel)) {
      fail_request(job.request, std::current_exception(), stats);
    }
  }
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      !job.failed.load(std::memory_order_acquire)) {
    complete_request(job.request, std::move(job.output), stats);
  }
}

}  // namespace

void execute_unit(WorkerSession& session, Unit& unit, StatsRecorder& stats) {
  if (auto* request = std::get_if<FrameRequest>(&unit)) {
    run_frame(session, *request, stats);
  } else {
    run_tile(session, std::get<TileUnit>(unit), stats);
  }
}

}  // namespace sesr::serve
