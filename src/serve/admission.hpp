// SLO-aware admission control for the sharded server.
//
// One controller fronts every shard. Per route it keeps an EWMA of observed
// service time (dispatch-queue entry to completion, recorded by the execution
// core) and, at admit time, estimates the latency a new request would see as
//
//     estimate = service_ewma * (in_system + 1) / workers
//
// where in_system counts the route's admitted-but-unresolved requests. When
// the estimate exceeds the budget (the smaller of the route's SLO p99 budget
// and the request's own remaining deadline), the controller walks the route's
// DEGRADE LADDER — registered routes of the same network that are strictly
// cheaper — and admits at the first rung whose estimate fits:
//
//     m5:4:fp32 -> m5:4:fp16 -> m5:4:int8 -> two-stage via m5:2:* -> shed
//
// Same-scale rungs are precision downgrades (fp32 -> fp16 -> hybrid -> int8).
// An x4 route additionally falls back to running the network's x2 sibling
// twice (two-stage), whose cost is estimated coarsely as 5x the x2 rung's
// single-pass estimate (stage 2 upscales a 4x-pixel intermediate). When no
// rung fits, the request is SHED with a typed ShedError instead of queueing
// unboundedly — under sustained overload, shedding is what keeps admitted
// requests inside the budget.
//
// A route with fewer than 4 completed observations admits optimistically:
// the estimator has nothing trustworthy to shed on yet, and admitting is the
// only way to warm it. The EWMA smoothing factor is a fixed 0.2.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/registry.hpp"
#include "serve/serve_options.hpp"

namespace sesr::serve {

// submit_admitted() shed the request: every degrade rung's latency estimate
// exceeded the budget. The typed overload response of the serve stack.
class ShedError : public std::runtime_error {
 public:
  explicit ShedError(std::int64_t estimate_us, std::int64_t budget_us)
      : std::runtime_error("server: shed (estimated " + std::to_string(estimate_us) +
                           "us over budget " + std::to_string(budget_us) + "us)"),
        estimate_us(estimate_us),
        budget_us(budget_us) {}
  std::int64_t estimate_us;
  std::int64_t budget_us;
};

class AdmissionController {
 public:
  enum class Action {
    kAdmit,            // route unchanged
    kDegrade,          // rewritten to a cheaper same-scale route
    kDegradeTwoStage,  // x4 served as the x2 sibling applied twice
    kShed,             // no rung fits the budget
  };

  struct Decision {
    Action action = Action::kAdmit;
    std::size_t route = 0;         // shard index to execute on (x2 shard for two-stage)
    std::int64_t estimate_us = 0;  // estimate at the chosen rung (or the best rejected one)
    std::int64_t budget_us = 0;    // effective budget the decision was made against
  };

  // `routes` in shard order (NetworkRegistry::entries()). `workers` is the
  // per-shard worker count (ServeOptions::workers).
  AdmissionController(const std::vector<RegisteredNetwork>& routes, SloOptions slo, int workers);

  // Decide for a request targeting shard `route`. `deadline_budget_us` is the
  // request's remaining deadline (<= 0 = none); the effective budget is
  // min(slo.p99_budget_us, deadline remaining), with 0 meaning "no budget"
  // for each. With no budget at all the request is always admitted unchanged.
  // `in_system(shard)` must return the shard's admitted-but-unresolved
  // request count.
  Decision admit(std::size_t route, std::int64_t deadline_budget_us,
                 const std::function<std::int64_t(std::size_t)>& in_system) const;

  // Record one observed service time (dispatch to completion) for `route`.
  // Lock-free; called from worker threads on every executed request.
  void record(std::size_t route, std::int64_t service_us);

  // Current EWMA in microseconds (0 until the first sample) — for stats and
  // tests.
  double ewma_us(std::size_t route) const;
  std::uint64_t samples(std::size_t route) const;

 private:
  struct Ewma {
    std::atomic<double> value{0.0};  // 0.0 = no samples yet
    std::atomic<std::uint64_t> count{0};
  };
  struct Rung {
    std::size_t route = 0;
    bool two_stage = false;
  };

  std::int64_t estimate_us(const Rung& rung,
                           const std::function<std::int64_t(std::size_t)>& in_system) const;

  SloOptions slo_;
  int workers_;
  std::unique_ptr<Ewma[]> ewma_;                 // per shard
  std::vector<std::vector<Rung>> ladder_;       // per shard: self first, then cheaper rungs
};

}  // namespace sesr::serve
