#include "check/audit.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "nn/gemm_s8.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::check {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// A trial fails only when it exceeds BOTH tolerances; each pair is tight in
// the metric that suits its value range and loose in the other.
bool trial_passed(const AuditPair& pair, const TrialResult& r) {
  if (r.skipped) return true;
  return !(r.stats.max_abs > pair.tol_abs && r.stats.max_ulp > pair.tol_ulp);
}

// RAII restore of the global pool width. worker_count() is N-1 workers for a
// pool of compute width N (the caller participates), so width = workers + 1.
class ThreadPoolGuard {
 public:
  ThreadPoolGuard() : saved_width_(ThreadPool::global().worker_count() + 1) {}
  ~ThreadPoolGuard() { ThreadPool::set_global_threads(saved_width_); }
  ThreadPoolGuard(const ThreadPoolGuard&) = delete;
  ThreadPoolGuard& operator=(const ThreadPoolGuard&) = delete;

 private:
  unsigned saved_width_;
};

// Run one seed of one pair under every thread count, folding the results into
// `report`. The first thread count's stats drive pass/fail; the remaining
// runs exist to cross-check the output hash (thread-count determinism).
void run_one_seed(const AuditPair& pair, std::uint64_t seed,
                  const std::vector<unsigned>& thread_counts, PairReport& report) {
  bool have_hash = false;
  std::uint64_t first_hash = 0;
  bool hash_mismatch = false;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    ThreadPool::set_global_threads(thread_counts[t]);
    TrialResult result = pair.trial(seed);
    if (result.skipped) {
      if (t == 0) ++report.trials_skipped;
      if (report.skip_reason.empty()) report.skip_reason = std::move(result.detail);
      continue;
    }
    if (!have_hash) {
      have_hash = true;
      first_hash = result.output_hash;
    } else if (result.output_hash != first_hash) {
      hash_mismatch = true;
    }
    if (t == 0) {
      ++report.trials_run;
      if (result.stats.max_ulp > report.worst.max_ulp || report.worst.count == 0) {
        report.worst_detail = result.detail;
      }
      report.worst.merge(result.stats);
      if (!trial_passed(pair, result)) {
        report.failures.push_back({seed, thread_counts[t], std::move(result)});
      }
    }
  }
  if (hash_mismatch) report.nondeterministic_seeds.push_back(seed);
}

PairReport make_report(const AuditPair& pair) {
  PairReport report;
  report.name = pair.name;
  report.tol_abs = pair.tol_abs;
  report.tol_ulp = pair.tol_ulp;
  return report;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::string_view pair_name, int trial_index) {
  std::uint64_t h = splitmix64(base_seed);
  for (const char c : pair_name) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return splitmix64(h ^ static_cast<std::uint64_t>(trial_index));
}

const AuditPair* find_pair(std::string_view name) {
  for (const AuditPair& pair : builtin_pairs()) {
    if (pair.name == name) return &pair;
  }
  return nullptr;
}

std::vector<PairReport> run_audit(const AuditOptions& options) {
  if (options.thread_counts.empty()) {
    throw std::invalid_argument("run_audit: need at least one thread count");
  }
  std::vector<PairReport> reports;
  ThreadPoolGuard guard;
  for (const AuditPair& pair : builtin_pairs()) {
    if (!options.pair_filter.empty() &&
        std::find(options.pair_filter.begin(), options.pair_filter.end(), pair.name) ==
            options.pair_filter.end()) {
      continue;
    }
    PairReport report = make_report(pair);
    for (int i = 0; i < options.trials; ++i) {
      run_one_seed(pair, trial_seed(options.base_seed, pair.name, i), options.thread_counts,
                   report);
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

PairReport replay_trial(const AuditPair& pair, std::uint64_t seed,
                        const std::vector<unsigned>& thread_counts) {
  if (thread_counts.empty()) {
    throw std::invalid_argument("replay_trial: need at least one thread count");
  }
  ThreadPoolGuard guard;
  PairReport report = make_report(pair);
  run_one_seed(pair, seed, thread_counts, report);
  return report;
}

bool all_passed(const std::vector<PairReport>& reports) {
  return std::all_of(reports.begin(), reports.end(),
                     [](const PairReport& r) { return r.passed(); });
}

void print_report(std::ostream& os, const std::vector<PairReport>& reports,
                  const AuditOptions& options) {
  os << "sesr-audit: " << reports.size() << " pair(s), " << options.trials
     << " trial(s) each, threads {";
  for (std::size_t i = 0; i < options.thread_counts.size(); ++i) {
    os << (i ? "," : "") << options.thread_counts[i];
  }
  os << "}, base seed 0x" << std::hex << options.base_seed << std::dec << "\n"
     << "int8 kernel: " << nn::gemm_s8_kernel_name() << "\n\n";

  std::size_t failed = 0;
  std::size_t skipped = 0;
  for (const PairReport& r : reports) {
    if (!r.passed()) ++failed;
    if (r.skipped()) {
      ++skipped;
      os << "SKIP " << r.name << " (" << r.skip_reason << ")\n";
      continue;
    }
    os << (r.passed() ? "PASS " : "FAIL ") << std::left << std::setw(24) << r.name
       << std::right << " trials=" << r.trials_run;
    if (r.trials_skipped > 0) os << " skipped=" << r.trials_skipped;
    os << std::scientific << std::setprecision(3) << " max_abs=" << r.worst.max_abs
       << " max_ulp=" << r.worst.max_ulp << std::defaultfloat
       << " (tol abs " << r.tol_abs << " / ulp " << r.tol_ulp << ")";
    if (!r.worst_detail.empty()) os << "  [" << r.worst_detail << "]";
    os << "\n";
    for (const TrialRecord& f : r.failures) {
      os << "    VIOLATION seed=" << f.seed << " threads=" << f.threads << " "
         << f.result.detail << std::scientific << std::setprecision(6)
         << " max_abs=" << f.result.stats.max_abs << " max_ulp=" << f.result.stats.max_ulp
         << " worst@" << f.result.stats.worst_index << " got=" << f.result.stats.worst_got
         << " want=" << f.result.stats.worst_want << std::defaultfloat << "\n"
         << "      replay: sesr-audit --pair " << r.name << " --replay " << f.seed << "\n";
    }
    for (const std::uint64_t seed : r.nondeterministic_seeds) {
      os << "    NONDETERMINISTIC across thread counts: seed=" << seed << "\n"
         << "      replay: sesr-audit --pair " << r.name << " --replay " << seed << "\n";
    }
  }
  os << "\n"
     << (all_passed(reports) ? "audit OK" : "audit FAILED") << " (" << reports.size()
     << " pairs: " << reports.size() - failed - skipped << " passed, " << failed << " failed, "
     << skipped << " skipped)\n";
}

}  // namespace sesr::check
