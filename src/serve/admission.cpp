#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

namespace sesr::serve {

namespace {

// Smoothing factor of the per-route service-time EWMA: higher reacts faster
// to load shifts, lower is steadier under bursty traffic.
constexpr double kEwmaAlpha = 0.2;

// Warmup: a route with fewer completed samples than this is always
// admittable — the estimator has nothing trustworthy to shed on yet.
constexpr std::uint64_t kMinSamples = 4;

// Relative arithmetic cost of a precision; lower = cheaper. Orders the
// degrade ladder fp32 -> fp16 -> hybrid -> int8 (gentlest downgrade first).
int precision_cost(core::InferencePrecision p) {
  switch (p) {
    case core::InferencePrecision::kFp32:
      return 3;
    case core::InferencePrecision::kFp16:
      return 2;
    case core::InferencePrecision::kHybrid:
      return 1;
    case core::InferencePrecision::kInt8:
      return 0;
  }
  return 3;
}

}  // namespace

AdmissionController::AdmissionController(const std::vector<RegisteredNetwork>& routes,
                                         SloOptions slo, int workers)
    : slo_(slo),
      workers_(std::max(1, workers)),
      ewma_(std::make_unique<Ewma[]>(routes.size())),
      ladder_(routes.size()) {
  slo_.headroom = std::max(slo_.headroom, 1e-3);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const RouteKey& self = routes[i].key;
    ladder_[i].push_back(Rung{i, false});
    // Same network, same scale, strictly cheaper precision — gentlest first.
    std::vector<std::size_t> cheaper;
    for (std::size_t j = 0; j < routes.size(); ++j) {
      const RouteKey& other = routes[j].key;
      if (j != i && other.network == self.network && other.scale == self.scale &&
          precision_cost(other.precision) < precision_cost(self.precision)) {
        cheaper.push_back(j);
      }
    }
    std::sort(cheaper.begin(), cheaper.end(), [&](std::size_t a, std::size_t b) {
      return precision_cost(routes[a].key.precision) > precision_cost(routes[b].key.precision);
    });
    for (std::size_t j : cheaper) ladder_[i].push_back(Rung{j, false});
    // x4 -> two-stage x2: the same network's x2 siblings, gentlest precision
    // first. The x2 shard executes both passes.
    if (self.scale == 4) {
      std::vector<std::size_t> halves;
      for (std::size_t j = 0; j < routes.size(); ++j) {
        const RouteKey& other = routes[j].key;
        if (other.network == self.network && other.scale == 2) halves.push_back(j);
      }
      std::sort(halves.begin(), halves.end(), [&](std::size_t a, std::size_t b) {
        return precision_cost(routes[a].key.precision) > precision_cost(routes[b].key.precision);
      });
      for (std::size_t j : halves) ladder_[i].push_back(Rung{j, true});
    }
  }
}

std::int64_t AdmissionController::estimate_us(
    const Rung& rung, const std::function<std::int64_t(std::size_t)>& in_system) const {
  const double ewma = ewma_[rung.route].value.load(std::memory_order_relaxed);
  if (ewma <= 0.0) return 0;  // unwarmed: admit optimistically
  const std::int64_t depth = std::max<std::int64_t>(0, in_system(rung.route));
  const double single =
      ewma * static_cast<double>(depth + 1) / static_cast<double>(workers_);
  // Two-stage runs the x2 network twice, the second pass over a 4x-pixel
  // intermediate: coarsely 5x one pass at the rung's current depth.
  const double est = rung.two_stage ? single * 5.0 : single;
  return static_cast<std::int64_t>(std::llround(std::min(est, 9e18)));
}

AdmissionController::Decision AdmissionController::admit(
    std::size_t route, std::int64_t deadline_budget_us,
    const std::function<std::int64_t(std::size_t)>& in_system) const {
  Decision d;
  d.route = route;
  std::int64_t budget = slo_.p99_budget_us > 0 ? slo_.p99_budget_us : 0;
  if (deadline_budget_us > 0) {
    budget = budget > 0 ? std::min(budget, deadline_budget_us) : deadline_budget_us;
  }
  d.budget_us = budget;
  if (budget <= 0) return d;  // no SLO and no deadline: always admit unchanged

  const double allowed = slo_.headroom * static_cast<double>(budget);
  const auto& ladder = ladder_.at(route);
  const std::size_t rungs = slo_.allow_degrade ? ladder.size() : 1;
  for (std::size_t r = 0; r < rungs; ++r) {
    const Rung& rung = ladder[r];
    const bool warmed = ewma_[rung.route].count.load(std::memory_order_relaxed) >= kMinSamples;
    const std::int64_t est = estimate_us(rung, in_system);
    d.estimate_us = est;
    if (!warmed || static_cast<double>(est) <= allowed) {
      d.route = rung.route;
      d.action = r == 0 ? Action::kAdmit
                        : (rung.two_stage ? Action::kDegradeTwoStage : Action::kDegrade);
      return d;
    }
  }
  d.action = Action::kShed;
  d.route = route;
  return d;
}

void AdmissionController::record(std::size_t route, std::int64_t service_us) {
  if (service_us < 0) service_us = 0;
  Ewma& e = ewma_[route];
  const double sample = static_cast<double>(service_us);
  double cur = e.value.load(std::memory_order_relaxed);
  double next;
  do {
    next = cur <= 0.0 ? sample : cur + kEwmaAlpha * (sample - cur);
    // First-sample seeding: keep a strictly positive value so 0.0 stays the
    // "unwarmed" sentinel even for a 0us sample.
    if (next <= 0.0) next = 1.0;
  } while (!e.value.compare_exchange_weak(cur, next, std::memory_order_relaxed));
  e.count.fetch_add(1, std::memory_order_relaxed);
}

double AdmissionController::ewma_us(std::size_t route) const {
  return ewma_[route].value.load(std::memory_order_relaxed);
}

std::uint64_t AdmissionController::samples(std::size_t route) const {
  return ewma_[route].count.load(std::memory_order_relaxed);
}

}  // namespace sesr::serve
