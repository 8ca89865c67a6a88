// The two kinds of benchmark run and what they share: the untraced run that
// yields every end-to-end metric through the shipped sesr-serve process, and
// the traced run that hosts the same server in-process and times calls into
// each layer from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "serve/registry.hpp"
#include "workloads.hpp"

namespace servebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server_path = SERVEBENCH_SERVE_PATH;  // the sesr-serve binary this build made
};

// part / whole, or 0 for an empty whole.
inline double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Seconds of untimed traffic before the first timed phase: plan caches,
// arenas, the admission EWMA, the response cache and video sessions warm up.
inline constexpr double kWarmupSeconds = 2.0;
// An open-loop phase whose p99 send lag exceeds this share of the latency
// limit is reported as a generator that fell behind.
inline constexpr double kLagShare = 0.1;

// Phase lengths as shares of --seconds.
struct PhasePlan {
  double steady_s = 0.0;
  double saturate_s = 0.0;
  double overload_s = 0.0;  // 0 = no overload phase
};
PhasePlan phase_plan(const Workload& workload, double seconds);

// Builds the workload and its references, and checks that the checker
// catches one flipped bit. Returns false when the checker failed that test.
bool prepare(const RunOptions& options, Workload& workload,
             sesr::serve::NetworkRegistry& registry);

// One line per phase: sent / succeeded / failed / overloaded counts, degraded
// and delta answers, latency percentiles with their sample counts, generator
// lag.
void print_phase(const PhaseResult& phase, double limit_ms);
double median(std::vector<double> values);
// Where p50 and p99 of a phase fall among the workload's latency modes.
void print_mode_report(const Workload& workload, const PhaseResult& phase);
// The result line: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

int run_untraced(const RunOptions& options);
int run_traced(const RunOptions& options);

}  // namespace servebench
