// One logical serving request and the typed errors of its admission.
//
// The submit path (sharded_server.cpp) builds a FrameRequest per admitted
// frame and pushes it straight into the shared FairDispatchQueue
// (dispatch.hpp): an untiled frame travels as one single-request unit, a
// tiled or video tile-delta frame as a TiledJob fanned out over tile units.
// FairDispatchQueue::push applies the per-shard admission bound and the
// overload policy (kBlock waits for space, kReject fails with
// QueueFullError). Every accepted request resolves its promise exactly once:
// with the upscaled frame, a typed error, or the execution error.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/tiled_inference.hpp"
#include "serve/clock.hpp"
#include "tensor/tensor.hpp"

namespace sesr::serve {

// submit() failed because the route's shard was at its queue_capacity bound
// under kReject.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError() : std::runtime_error("server: submission queue full") {}
};

// submit() arrived after shutdown began.
class ServerClosedError : public std::runtime_error {
 public:
  ServerClosedError() : std::runtime_error("server: shut down") {}

 protected:
  explicit ServerClosedError(const std::string& what) : std::runtime_error(what) {}
};

// submit() arrived while the server was draining (begin_drain() without a
// following resume()). Derives from ServerClosedError so callers that only
// distinguish "server not accepting" keep working; callers that care can
// catch the drain case first.
class ServerDrainingError : public ServerClosedError {
 public:
  ServerDrainingError() : ServerClosedError("server: draining") {}
};

class AdmissionController;
class ResponseCache;
class VideoSessionTable;
struct RouteCounters;

// Tile-delta plan computed on the submit path of a video-session frame
// (sharded_server.cpp): the request is dispatched as a TiledJob over only the
// dirty tiles, with the clean regions already spliced into `output` from the
// session's previous HR frame.
struct VideoDeltaPlan {
  std::vector<core::TileTask> dirty_tasks;  // the tiles to recompute
  Tensor output;  // (1, scale*H, scale*W, 1), clean tiles pre-spliced
  std::size_t total_tiles = 0;           // grid size, for reuse accounting
};

// Counts logical requests between admission (submit accepted the frame) and
// final resolution of their promise. begin_drain()/shutdown() block on
// wait_zero(): "every accepted request resolves before threads join" is this
// counter hitting zero. seq_cst on the counter pairs with the seq_cst
// draining flag in the server: a submitter increments BEFORE checking the
// flag, so either it sees draining and backs out, or the drainer's
// wait_zero() sees its increment.
class InflightTracker {
 public:
  void add() { count_.fetch_add(1, std::memory_order_seq_cst); }

  void done() {
    if (count_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      zero_.notify_all();
    }
  }

  std::int64_t count() const { return count_.load(std::memory_order_seq_cst); }

  void wait_zero() {
    std::unique_lock<std::mutex> lock(mutex_);
    zero_.wait(lock, [&] { return count_.load(std::memory_order_seq_cst) == 0; });
  }

 private:
  std::atomic<std::int64_t> count_{0};
  std::mutex mutex_;
  std::condition_variable zero_;
};

struct FrameRequest {
  std::uint64_t id = 0;
  Tensor frame;  // (1, H, W, 1)
  std::promise<Tensor> promise;
  ServeClock::time_point enqueue_time;
  // Per-request deadline (steady). time_point::max() = none. Admission
  // shrinks the SLO budget to the remaining deadline; expiry is advisory (a
  // request already executing is not cancelled).
  ServeClock::time_point deadline = ServeClock::time_point::max();
  // Stamped by FairDispatchQueue::push when the request's unit (or its tile
  // job's first unit) enters the dispatch queue; the admission EWMA's service
  // sample is completion_time - dispatch_time.
  ServeClock::time_point dispatch_time{};
  // Routing context (sharded server). When `cache` is set, the execution core
  // inserts the completed output under (route_id, frame) before fulfilling
  // the promise; `route` receives per-network completion counters.
  ResponseCache* cache = nullptr;
  RouteCounters* route = nullptr;
  std::size_t route_id = 0;
  // Admission feedback: when set, completion records the observed service
  // time into `admission`'s EWMA for `admit_route` (the shard that actually
  // executed — the served route, not the requested one when degraded).
  AdmissionController* admission = nullptr;
  std::size_t admit_route = 0;
  // Drain accounting: add()'d at admission, done()'d after the promise (and
  // done_hook) resolve, on every path — value, typed error, or execution
  // error.
  InflightTracker* inflight = nullptr;
  // Fires after the promise resolves (value or exception), still on the
  // fulfilling thread. The TCP front end uses it to hand the completion back
  // to its IO loop; by the time it runs, future.get() cannot block.
  std::function<void()> done_hook;
  // Two-stage degrade (x4 served as x2 twice): when set, a successful
  // execution hands (request, intermediate) to the continuation INSTEAD of
  // fulfilling the promise — the continuation builds and enqueues stage 2,
  // which carries the promise/done_hook/inflight to final resolution.
  // Failures skip the continuation and fail the promise directly.
  std::function<void(FrameRequest&&, Tensor&&)> continuation;
  // Video-session context: when `video` is set, complete_request publishes
  // (frame, output) for (route_id, video_session) at video_seq — BEFORE the
  // promise resolves, so a closed-loop client's next frame always finds its
  // predecessor. When the submit path also attached a delta plan, only the
  // plan's dirty tiles are dispatched instead of the full frame.
  VideoSessionTable* video = nullptr;
  std::uint64_t video_session = 0;
  std::uint64_t video_seq = 0;
  std::shared_ptr<VideoDeltaPlan> video_delta;
};

}  // namespace sesr::serve
