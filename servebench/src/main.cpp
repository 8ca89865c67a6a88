// servebench — the repository's serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 starts the shipped `sesr-serve --listen` several times (set-up
// time), then drives the first instance over the wire protocol through the
// workload's phases and prints every end-to-end metric. --trace 1 hosts the
// same server in-process and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/tiled_inference.hpp"
#include "runs.hpp"
#include "serve/stats.hpp"
#include "server_process.hpp"

namespace servebench {

namespace {

constexpr int kServerStarts = 7;           // setup_s is the median of these fresh starts
constexpr unsigned kReferenceThreads = 4;  // set-up only; nothing else runs yet

// "<key>A/B": A and B from a line of the server's drain report (0/0 if absent).
std::pair<double, double> drain_ratio(const std::string& drain, const std::string& key) {
  const std::size_t at = drain.find(key);
  if (at == std::string::npos) return {0.0, 0.0};
  const std::size_t slash = drain.find('/', at);
  return {std::stod(drain.substr(at + key.size())), std::stod(drain.substr(slash + 1))};
}

// The measured property each workload's "why" rests on.
void print_properties(const Workload& workload, const PhaseResult& steady,
                      const std::string& drain) {
  const double n = static_cast<double>(steady.latency_mode.size());
  auto mode_share = [&](std::uint8_t mode) {
    return share(static_cast<double>(
                     std::count(steady.latency_mode.begin(), steady.latency_mode.end(), mode)),
                 n);
  };
  std::printf("properties %s:\n", workload.name.c_str());
  if (workload.name == "small_frames") {
    const auto [hits, probes] = drain_ratio(drain, "cache    hits ");
    std::printf("  repeated-frame share (steady) %.3f  server cache hits %.0f/%.0f (%.3f)\n",
                mode_share(0), hits, probes, share(hits, probes));
  } else if (workload.name == "mixed_sizes") {
    std::printf("  large-request share (steady) %.3f  tiles per large frame %zu\n", mode_share(1),
                sesr::core::tile_grid(180, 320, sesr::core::TilingOptions{}, 0).size());
  } else {
    const auto [reused, tiles] = drain_ratio(drain, "tiles reused ");
    std::printf("  fully-dirty frame share (steady) %.3f  server tiles reused %.0f/%.0f (%.3f)  "
                "delta answers (steady) %llu/%llu\n",
                mode_share(1), reused, tiles, share(reused, tiles),
                static_cast<unsigned long long>(steady.delta),
                static_cast<unsigned long long>(steady.ok));
  }
}

}  // namespace

PhasePlan phase_plan(const Workload& workload, double seconds) {
  if (workload.overload_rate > 0.0) return {0.65 * seconds, 0.12 * seconds, 0.23 * seconds};
  return {0.65 * seconds, 0.35 * seconds, 0.0};
}

bool prepare(const RunOptions& options, Workload& workload,
             sesr::serve::NetworkRegistry& registry) {
  workload = make_workload(options.workload, options.seed);
  registry = build_registry(workload);
  compute_references(workload, registry, kReferenceThreads);
  // The checker must reject a plane that differs in a single bit.
  std::vector<float> flipped = workload.inputs.front().ref.front();
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped[flipped.size() / 2], sizeof(bits));
  bits ^= 1U;
  std::memcpy(&flipped[flipped.size() / 2], &bits, sizeof(bits));
  return planes_equal(workload.inputs.front().ref.front(), workload.inputs.front().ref.front()) &&
         !planes_equal(flipped, workload.inputs.front().ref.front());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void print_phase(const PhaseResult& phase, double limit_ms) {
  const std::size_t n = phase.latency_ms.size();
  // Samples strictly above the nearest-rank p99: what the tail rests on.
  const double p99 = sesr::serve::percentile(phase.latency_ms, 99.0);
  const auto beyond = std::count_if(phase.latency_ms.begin(), phase.latency_ms.end(),
                                    [p99](double v) { return v > p99; });
  std::printf("phase %-9s %s %.1fs  sent %llu  succeeded %llu  failed %llu  overloaded %llu  "
              "degraded %llu  mismatched %llu  delta %llu\n",
              phase.name.c_str(), phase.open_loop ? "open  " : "closed", phase.seconds,
              static_cast<unsigned long long>(phase.sent),
              static_cast<unsigned long long>(phase.ok),
              static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.overloaded),
              static_cast<unsigned long long>(phase.degraded),
              static_cast<unsigned long long>(phase.mismatched),
              static_cast<unsigned long long>(phase.delta));
  std::printf("phase %-9s latency p50 %.2f ms  p99 %.2f ms  (%zu samples, %lld beyond p99)\n",
              phase.name.c_str(), sesr::serve::percentile(phase.latency_ms, 50.0), p99, n,
              static_cast<long long>(beyond));
  if (phase.open_loop) {
    const double lag = sesr::serve::percentile(phase.lag_ms, 99.0);
    std::printf("phase %-9s gen.lag_p99_ms %.3f%s\n", phase.name.c_str(), lag,
                lag > kLagShare * limit_ms ? "  GENERATOR FELL BEHIND" : "");
  }
  std::printf("phase %-9s host steal %.2f CPU-s\n", phase.name.c_str(), phase.steal_s);
  if (!phase.first_failure.empty()) {
    std::printf("phase %-9s first failure: %s\n", phase.name.c_str(), phase.first_failure.c_str());
  }
}

void print_mode_report(const Workload& workload, const PhaseResult& phase) {
  const std::vector<std::string> names = latency_mode_names(workload);
  struct Mode {
    std::string name;
    std::vector<double> samples;
  };
  std::vector<Mode> modes;
  for (const std::string& name : names) modes.push_back({name, {}});
  for (std::size_t i = 0; i < phase.latency_ms.size(); ++i) {
    modes[phase.latency_mode[i]].samples.push_back(phase.latency_ms[i]);
  }
  modes.erase(std::remove_if(modes.begin(), modes.end(),
                             [](const Mode& m) { return m.samples.empty(); }),
              modes.end());
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return median(a.samples) < median(b.samples); });
  const double total = static_cast<double>(phase.latency_ms.size());
  if (total == 0.0) return;
  double lo = 0.0;
  std::printf("modes %s (sorted by median latency; cumulative share of samples):\n",
              phase.name.c_str());
  std::vector<std::pair<double, double>> spans;
  for (const Mode& m : modes) {
    const double hi = lo + static_cast<double>(m.samples.size()) / total;
    std::printf("  %-18s share %5.1f%%  [%5.1f%%, %5.1f%%]  p5 %7.2f ms  p50 %7.2f ms  p95 %7.2f ms\n",
                m.name.c_str(), 100.0 * (hi - lo), 100.0 * lo, 100.0 * hi,
                sesr::serve::percentile(m.samples, 5.0), sesr::serve::percentile(m.samples, 50.0),
                sesr::serve::percentile(m.samples, 95.0));
    spans.emplace_back(lo, hi);
    lo = hi;
  }
  for (const double q : {0.50, 0.99}) {
    std::size_t mode = 0;
    while (mode + 1 < spans.size() && q >= spans[mode].second) ++mode;
    // Distance to the nearest boundary between two modes (0% and 100% are
    // not boundaries).
    double margin = 1.0;
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      margin = std::min(margin, std::abs(q - spans[i].second));
    }
    std::printf("  p%02.0f falls in %-18s %.1f points from the nearest mode boundary\n",
                q * 100.0, modes[mode].name.c_str(), 100.0 * margin);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_untraced(const RunOptions& options) {
  Workload workload;
  sesr::serve::NetworkRegistry registry;
  const bool checker_ok = prepare(options, workload, registry);
  const PhasePlan plan = phase_plan(workload, options.seconds);
  std::printf("servebench %s seed %llu: %zu inputs, limit %.0f ms, steady %.0f/s, "
              "saturate %d in flight%s\n",
              workload.name.c_str(), static_cast<unsigned long long>(workload.seed),
              workload.inputs.size(), workload.limit_ms, workload.steady_rate,
              workload.saturate_concurrency,
              plan.overload_s > 0.0
                  ? (", overload " + std::to_string(static_cast<int>(workload.overload_rate)) + "/s")
                        .c_str()
                  : "");

  // Set-up time: fresh starts of the shipped server. The first one serves the
  // traffic; the others start and stop between phases, so the median samples
  // the whole run rather than one moment of it.
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>(options.server_path, workload.server_args());
  setups.push_back(server->ready_seconds());
  auto extra_starts = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ServerProcess extra(options.server_path, workload.server_args());
      setups.push_back(extra.ready_seconds());
    }
  };

  std::vector<PhaseResult> phases;
  double cpu_s = 0.0;
  {
    LoadGenerator gen(workload, server->port());
    const std::uint64_t seed = options.seed;
    phases.push_back(gen.run_open(
        "warmup", open_schedule(workload, gen.source(), workload.steady_rate, kWarmupSeconds, seed + 1),
        false));
    extra_starts(kServerStarts / 3);
    phases.push_back(gen.run_open(
        "steady", open_schedule(workload, gen.source(), workload.steady_rate, plan.steady_s, seed + 2),
        false));
    extra_starts(kServerStarts / 3);
    const pid_t pid = server->pid();
    bool window_open = false;
    phases.push_back(gen.run_closed("saturate", workload.saturate_concurrency, plan.saturate_s,
                                    [&] {
                                      const double now = process_cpu_seconds(pid);
                                      cpu_s = window_open ? now - cpu_s : now;
                                      window_open = true;
                                    }));
    phases.back().open_loop = false;
    extra_starts(kServerStarts - 1 - 2 * (kServerStarts / 3));
    if (plan.overload_s > 0.0) {
      phases.push_back(gen.run_open("overload",
                                    open_schedule(workload, gen.source(), workload.overload_rate,
                                                  plan.overload_s, seed + 3),
                                    true));
    }
  }
  std::printf("setup starts (s):");
  for (double t : setups) std::printf(" %.4f", t);
  std::printf("\n");
  const double rss_mb = process_peak_rss_mb(server->pid());
  const int exit_code = server->stop();
  const std::string& drain = server->output();

  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  for (const PhaseResult& p : phases) {
    print_phase(p, workload.limit_ms);
    attempted += p.sent;
    failed += p.failed;
    mismatched += p.mismatched;
  }
  const PhaseResult& steady = phases[1];
  const PhaseResult& saturate = phases[2];
  const PhaseResult& loaded = plan.overload_s > 0.0 ? phases[3] : saturate;

  print_properties(workload, steady, drain);
  print_mode_report(workload, steady);
  std::printf("server drain report (exit %d):\n%s", exit_code, drain.c_str());

  const double throughput = static_cast<double>(saturate.window_ok) / plan.saturate_s;
  const double loaded_s = plan.overload_s > 0.0 ? plan.overload_s : plan.saturate_s;
  const double loaded_ok =
      static_cast<double>(plan.overload_s > 0.0 ? loaded.ok_within_limit : loaded.window_ok_within_limit);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"throughput_fps", throughput, "1/s"},
      {"latency_p50_ms", sesr::serve::percentile(steady.latency_ms, 50.0), "ms"},
      {"slo_attain_frac",
       share(static_cast<double>(steady.ok_within_limit), static_cast<double>(steady.sent)), "frac"},
      {"goodput_fps", loaded_ok / loaded_s, "1/s"},
      {"cpu_ms_per_frame", 1e3 * share(cpu_s, static_cast<double>(saturate.window_ok)), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  for (const Metric& m : metrics) std::printf("metric %-18s %12.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("correctness: checker self-test %s, %llu mismatched answers, server exit %d\n",
              checker_ok ? "passed" : "FAILED", static_cast<unsigned long long>(mismatched),
              exit_code);
  print_result(checker_ok && mismatched == 0 && exit_code == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace servebench

int main(int argc, char** argv) {
  servebench::RunOptions options;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") trace = std::stoi(value);
      else throw std::invalid_argument("unknown option " + key);
    }
    const auto& names = servebench::workload_names();
    if (argc % 2 == 0 || std::find(names.begin(), names.end(), options.workload) == names.end() ||
        (trace != 0 && trace != 1) || options.seconds <= 0.0) {
      throw std::invalid_argument("bad arguments");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload small_frames|mixed_sizes|"
                 "video_sessions --seed N --seconds S --trace 0|1\n",
                 e.what());
    return 2;
  }
  try {
    return trace == 1 ? servebench::run_traced(options) : servebench::run_untraced(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
