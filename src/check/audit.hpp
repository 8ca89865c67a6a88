// The property-sweep engine of the numerical audit.
//
// An AuditPair binds one optimized code path to its double-precision
// reference: its `trial` callback draws a random configuration (shape,
// stride, alignment, data) from a seed, runs both paths, and reports the
// error. The engine sweeps every pair over many seeds and over multiple
// global thread counts, checks each trial against the pair's tolerances,
// and verifies that the optimized output is bit-identical across thread
// counts (the repo's determinism promise).
//
// A trial FAILS only when its error exceeds BOTH tolerances — max-abs and
// max-ULP — so each pair can be tight in the metric that suits its value
// range (see docs/AUDIT.md). Every failure records the seed that produced
// it; `sesr-audit --replay <seed> --pair <name>` reruns exactly that trial.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "check/compare.hpp"

namespace sesr::check {

struct TrialResult {
  ErrorStats stats;
  std::string detail;             // human-readable configuration, e.g. "m=13 k=64 n=48"
  std::uint64_t output_hash = 0;  // bit hash of the optimized output
  bool skipped = false;           // pair not applicable (e.g. AVX2 on a non-AVX2 CPU);
                                  // `detail` then says why
};

struct AuditPair {
  std::string name;
  std::string description;
  double tol_abs = 0.0;
  double tol_ulp = 0.0;
  std::function<TrialResult(std::uint64_t seed)> trial;
};

// One executed trial, kept when it fails (or for replay output).
struct TrialRecord {
  std::uint64_t seed = 0;
  unsigned threads = 0;
  TrialResult result;
};

struct PairReport {
  std::string name;
  double tol_abs = 0.0;
  double tol_ulp = 0.0;
  ErrorStats worst;               // across all passing + failing trials
  std::string worst_detail;
  std::int64_t trials_run = 0;
  std::int64_t trials_skipped = 0;
  std::string skip_reason;        // detail of the first skipped trial

  std::vector<TrialRecord> failures;
  // Seeds whose optimized output hashed differently across thread counts.
  std::vector<std::uint64_t> nondeterministic_seeds;

  bool passed() const { return failures.empty() && nondeterministic_seeds.empty(); }
  // Every trial skipped (e.g. the pinned kernel build is absent on this CPU).
  bool skipped() const { return trials_run == 0 && trials_skipped > 0; }
};

struct AuditOptions {
  int trials = 32;
  std::uint64_t base_seed = 0x5E5A0D17ULL;
  std::vector<unsigned> thread_counts = {1, 4};
  std::vector<std::string> pair_filter;  // empty = every builtin pair
};

// Deterministic per-trial seed: splitmix64 over (base, pair name, index).
// Printed on failure; --replay feeds it straight back into the pair.
std::uint64_t trial_seed(std::uint64_t base_seed, std::string_view pair_name, int trial_index);

// The registered optimized-vs-reference pairs (src/check/audits.cpp).
const std::vector<AuditPair>& builtin_pairs();
const AuditPair* find_pair(std::string_view name);

// Sweep `options.trials` seeds per pair per thread count. Restores the global
// thread pool to its prior width before returning.
std::vector<PairReport> run_audit(const AuditOptions& options);

// Rerun one pair on one explicit seed (the replay path). Runs under every
// requested thread count and reports like a one-trial sweep.
PairReport replay_trial(const AuditPair& pair, std::uint64_t seed,
                        const std::vector<unsigned>& thread_counts);

bool all_passed(const std::vector<PairReport>& reports);

// Header (including the int8 micro-kernel the dispatcher picked), one line
// per pair — PASS / FAIL, or SKIP <pair> (<reason>) when every trial was
// skipped — and a summary line counting passed, failed and skipped pairs.
void print_report(std::ostream& os, const std::vector<PairReport>& reports,
                  const AuditOptions& options);

}  // namespace sesr::check
