// Microbenchmarks of the numerical-audit trials themselves.
//
// The audit sweeps (tools/sesr-audit, the sesr_audit_quick ctest) spend most
// of their time in the double-precision references, which are deliberately
// naive. These benchmarks track the per-trial cost of the heavyweight pairs
// so a reference rewrite or a new expensive pair shows up as a wall-clock
// regression in CI budgets rather than a mysteriously slow audit.
#include <benchmark/benchmark.h>

#include <string>

#include "check/audit.hpp"

namespace {

void run_pair_trials(benchmark::State& state, const std::string& name) {
  const sesr::check::AuditPair* pair = sesr::check::find_pair(name);
  if (pair == nullptr) {
    state.SkipWithError(("unknown audit pair: " + name).c_str());
    return;
  }
  std::uint64_t index = 0;
  for (auto _ : state) {
    const std::uint64_t seed = sesr::check::trial_seed(0x5E5A0D17ULL, pair->name,
                                                       static_cast<int>(index++ % 32));
    sesr::check::TrialResult result = pair->trial(seed);
    benchmark::DoNotOptimize(result.stats.max_ulp);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AuditTrial_GemmScalar(benchmark::State& state) {
  run_pair_trials(state, "gemm_scalar");
}
void BM_AuditTrial_Conv2dStriped(benchmark::State& state) {
  run_pair_trials(state, "conv2d_striped");
}
void BM_AuditTrial_Int8NetworkReplay(benchmark::State& state) {
  run_pair_trials(state, "int8_network_vs_replay");
}
void BM_AuditTrial_ResizeBicubic(benchmark::State& state) {
  run_pair_trials(state, "resize_bicubic");
}

BENCHMARK(BM_AuditTrial_GemmScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AuditTrial_Conv2dStriped)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AuditTrial_Int8NetworkReplay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AuditTrial_ResizeBicubic)->Unit(benchmark::kMillisecond);

}  // namespace
