// Asynchronous eval server over ONE collapsed SESR network — the
// single-network special case of the sharded front end (sharded_server.hpp).
//
// Request flow (see docs/SERVING.md for the full picture):
//
//   submit(frame) ──> FairDispatchQueue ──pop──> first free worker session
//                     (bound: queue_capacity;     (SesrInference replica each;
//                      block / reject)             one frame or tile per unit)
//
// EvalServer wraps a ShardedServer holding exactly one route ("default", the
// network's scale, ServeOptions::precision), so every execution property of
// the sharded path — bit-identical full-frame/tiled results, fair
// round-robin tile scheduling, the optional bit-exact response cache
// (ServeOptions::cache_entries), drain-on-close shutdown — holds here too.
//
// shutdown() is graceful: no new submissions, but everything already accepted
// is executed and every future completes. The destructor calls shutdown().
#pragma once

#include <future>

#include "core/sesr_inference.hpp"
#include "serve/sharded_server.hpp"

namespace sesr::serve {

class EvalServer {
 public:
  // The network is copied (via its checkpoint form) into one replica per
  // worker session, so the caller's instance is not retained.
  EvalServer(const core::SesrInference& network, ServeOptions options);
  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  // Enqueue a (1, H, W, 1) Y frame. The future resolves to the upscaled
  // (1, scale*H, scale*W, 1) frame, or to QueueFullError (kReject overload),
  // ServerClosedError (after shutdown), or the execution error.
  std::future<Tensor> submit(Tensor frame) { return server_.submit(route_, std::move(frame)); }

  // Drain in-flight requests, complete every accepted future, stop all
  // threads. Idempotent; also run by the (defaulted) destructor via
  // ShardedServer's.
  void shutdown() { server_.shutdown(); }

  ServerStats stats() const { return server_.stats().total; }
  CacheStats cache_stats() const { return server_.stats().cache; }
  const ServeOptions& options() const { return server_.options(); }

 private:
  static NetworkRegistry single_registry(const core::SesrInference& network,
                                         const ServeOptions& options);

  RouteKey route_;
  ShardedServer server_;
};

}  // namespace sesr::serve
