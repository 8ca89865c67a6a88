// Execution units, the shared fair dispatch queue, and the worker-session
// execution core of ShardedServer.
//
// Units flow   submit path ──push──> FairDispatchQueue ──pop──> worker sessions
//
// The queue is ONE object shared by every shard, with per-shard unit storage
// because a worker can only execute units of the shard whose network replica
// it holds. It is also the admission bound: push() counts each shard's queued
// LOGICAL requests against ServeOptions::queue_capacity and applies the
// overload policy there (kBlock waits for space, kReject returns kFull). A
// worker takes the next unit the moment it is free — nothing holds a request
// back waiting for company.
//
// Fairness: within a shard, units are grouped into LANES — one lane per
// logical request (an untiled frame is one lane entry; a tiled frame's whole
// tile fan-out shares one lane). pop() serves fresh lanes first (FIFO among
// themselves), then cycles already-served lanes round-robin, one unit per
// turn: a newly arrived small request is scheduled after at most the units
// already executing, and a 100-tile frame interleaves 1:1 with its peers
// instead of holding the workers for its entire fan-out. This lane scheduler
// is the only dispatch policy.
//
// Depth is counted in logical requests, not units: push() takes a weight, and
// the submit path pushes a tiled job's first unit with weight 1 and the rest
// of its fan-out with weight 0. A weight-0 push never blocks and is never
// refused as full — it extends a request that was already admitted, and a
// two-stage continuation pushes from a worker thread, which must not wait on
// its own shard's bound.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/tiled_inference.hpp"
#include "serve/request.hpp"
#include "serve/serve_options.hpp"
#include "serve/stats.hpp"

namespace sesr::serve {

// One frame being tiled across a shard's workers; the last tile fulfils the
// promise.
struct TiledJob {
  FrameRequest request;
  Tensor output;  // (1, scale*H, scale*W, 1); tiles write disjoint regions
  std::vector<core::TileTask> tasks;
  std::atomic<std::int64_t> remaining{0};  // tiles left, counts down to 0
  std::atomic<bool> failed{false};
};

// One of a TiledJob's tasks: every tile is its own dispatch unit.
struct TileUnit {
  std::shared_ptr<TiledJob> job;
  std::size_t task = 0;
};

// An untiled frame runs whole on one worker as a single-request unit.
using Unit = std::variant<FrameRequest, TileUnit>;

class FairDispatchQueue {
 public:
  enum class PushResult { kAccepted, kFull, kClosed };

  // `shard_capacity` bounds each shard's weighted depth: the logical requests
  // admitted to it whose weighted unit no worker has popped yet.
  FairDispatchQueue(std::size_t shard_count, std::size_t shard_capacity);

  // On kAccepted the unit has been moved into the queue and its request's
  // dispatch_time stamped; on kFull/kClosed the unit is NOT consumed — a
  // caller holding it by name can still fail its promise with a typed error.
  //
  // Status contract (every path returns, none hangs, none drops the unit):
  //   * kBlock, shard full: waits until a pop frees space OR close() — a
  //     pusher blocked at close time wakes and gets kClosed, never a hang.
  //   * kReject, shard full: kFull immediately.
  //   * weight 0: never waits and is never kFull, under either policy.
  //   * closed (including drain-on-close, while pops still empty the queue):
  //     kClosed under BOTH policies — closed wins over full, so a
  //     reject-policy producer racing the drain sees the server's state, not a
  //     transient kFull.
  PushResult push(std::size_t shard, std::uint64_t lane, Unit&& unit, std::size_t weight = 1,
                  OverloadPolicy policy = OverloadPolicy::kBlock);

  // Pops the next unit for `shard`: fresh lanes first in arrival order, then
  // already-served lanes round-robin. Blocks until a unit arrives; returns
  // false once the queue is closed and the shard is drained.
  bool pop(std::size_t shard, Unit& out);

  // Wakes everyone; pending units remain poppable (drain semantics).
  void close();

  // Current weighted depth of `shard` (admitted logical requests queued).
  std::size_t size(std::size_t shard) const;

 private:
  struct Lane {
    std::uint64_t id = 0;
    bool served = false;  // has pop() taken a unit from this lane yet?
    std::deque<std::pair<Unit, std::size_t>> units;  // (unit, weight)
  };
  struct ShardLanes {
    std::list<Lane> rotation;  // front = next lane to serve
    std::unordered_map<std::uint64_t, std::list<Lane>::iterator> by_id;
    std::size_t units = 0;
    std::size_t depth = 0;  // weighted: admitted logical requests
  };

  const std::size_t shard_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<ShardLanes> shards_;
  bool closed_ = false;
};

// One worker's private execution context: a bit-exact network replica
// (reconstructed from the registry checkpoint). The replica's plan arena
// grows on demand to exactly the largest unit it has run and never shrinks;
// under kAuto a unit is a frame below tiled_threshold_pixels or one haloed
// tile, which bounds the arena by construction.
struct WorkerSession {
  explicit WorkerSession(const TensorMap& checkpoint) : network(checkpoint) {}
  core::SesrInference network;
  std::thread thread;
  // Serializes unit execution against reload_routes' replica rebuild. The
  // request's inflight token is released when its promise is fulfilled
  // (inside execute_unit), but the worker still reads `network` for arena
  // bookkeeping afterwards — a reload that only waited for inflight==0 would
  // rebuild the replica under that tail read.
  std::mutex busy;
};

// Executes one unit on one session: runs the frame / tile work, inserts
// completed outputs into each request's response cache (when routed through
// one), fulfils the promises, and records stats. Cache insertion happens
// BEFORE the promise is fulfilled, so a caller that observed a completion can
// rely on the next identical submission hitting the cache.
void execute_unit(WorkerSession& session, Unit& unit, StatsRecorder& stats);

// Resolve one request with a value / an error. Shared by the execution core
// and the server's submit path (cache hits, zero-dirty video frames) so every
// resolution runs the same ordered epilogue: admission EWMA sample (dispatched
// requests only) -> cache insert or session publish (success only) -> route
// counter -> stats -> promise -> done_hook -> inflight done. When the
// request carries a two-stage continuation, complete_request hands it
// (request, output) INSTEAD of fulfilling the promise — stage 2 owns the
// promise, done_hook, and inflight from then on.
void complete_request(FrameRequest& request, Tensor output, StatsRecorder& stats);
void fail_request(FrameRequest& request, const std::exception_ptr& error, StatsRecorder& stats);

}  // namespace sesr::serve
