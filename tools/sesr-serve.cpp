// sesr-serve — the TCP/HTTP front end of the sharded server.
//
// Loads one or more freshly initialized collapsed SESR networks
// (--networks m5:2,m11:2:fp16; m5:2:fp32 by default) into a ShardedServer and
// serves them on --bind:--listen (0 = an ephemeral port, printed in the
// "listening on ADDR:PORT" banner) over the length-prefixed wire protocol and
// its HTTP adapter (serve/net). --slo-p99-ms arms SLO admission (shed /
// degrade under overload). Runs until --duration-s or SIGINT/SIGTERM, then
// drains gracefully: every accepted request is resolved before threads join,
// and the net and server counters are printed. docs/SERVING.md explains how
// to read them.
//
// Load generation lives elsewhere: servebench/ drives this binary over the
// socket with a checked load generator, and bench/bench_serve_throughput
// sweeps the in-process server.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_network.hpp"
#include "serve/net/server.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "serve/stats.hpp"
#include "serve_cli.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace sesr;

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

core::SesrConfig named_config(const std::string& name, std::int64_t scale) {
  if (name == "m3") return core::sesr_m3(scale);
  if (name == "m5") return core::sesr_m5(scale);
  if (name == "m7") return core::sesr_m7(scale);
  if (name == "m11") return core::sesr_m11(scale);
  return core::sesr_xl(scale);
}

serve::NetworkRegistry build_registry(const cli::ServeCliConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  serve::NetworkRegistry registry;
  for (const serve::RouteKey& route : config.routes) {
    core::SesrNetwork network(named_config(route.network, route.scale), rng);
    core::SesrInference collapsed(network);
    if (route.precision == core::InferencePrecision::kInt8 ||
        route.precision == core::InferencePrecision::kHybrid) {
      // Deterministic synthetic calibration set (and, for hybrid, plan): the
      // scales travel inside the checkpoint, so every shard replica inherits
      // them bit-exactly.
      Rng calib_rng(seed ^ 0xC0FFEEULL);
      std::vector<Tensor> calib;
      for (int i = 0; i < 4; ++i) {
        Tensor frame(1, 48, 48, 1);
        frame.fill_uniform(calib_rng, 0.0F, 1.0F);
        calib.push_back(std::move(frame));
      }
      collapsed.calibrate_int8(calib);
      if (route.precision == core::InferencePrecision::kHybrid) {
        std::vector<Tensor> hr;
        collapsed.set_precision(core::InferencePrecision::kFp32);
        for (const Tensor& frame : calib) hr.push_back(collapsed.upscale(frame));
        for (Tensor& frame : hr) {
          Tensor noise(frame.shape());
          noise.fill_uniform(calib_rng, -0.005F, 0.005F);
          for (std::int64_t i = 0; i < frame.numel(); ++i) frame.raw()[i] += noise.raw()[i];
        }
        core::plan_hybrid_precision(collapsed, calib, hr);
      }
    }
    registry.add(route, collapsed);
  }
  return registry;
}

std::string route_list_string(const cli::ServeCliConfig& config) {
  std::string list;
  for (const serve::RouteKey& route : config.routes) {
    if (!list.empty()) list += ",";
    list += serve::route_string(route);
  }
  return list;
}

void print_server_stats(const cli::ServeCliConfig& config, const serve::ShardedStats& sharded) {
  const serve::ServerStats& stats = sharded.total;
  std::printf("latency  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n", stats.p50_us / 1e3,
              stats.p95_us / 1e3, stats.p99_us / 1e3, stats.max_us / 1e3);
  if (stats.shed + stats.degraded > 0) {
    std::printf("admission  shed %llu  degraded %llu (two-stage %llu)\n",
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.degraded),
                static_cast<unsigned long long>(stats.two_stage));
  }
  for (const serve::RouteStats& route : sharded.per_route) {
    std::printf(
        "route %-14s submitted %llu  completed %llu  failed %llu  cache hits %llu  ewma %.2f ms  "
        "peak arena %.1f KiB\n",
        route.route.c_str(), static_cast<unsigned long long>(route.submitted),
        static_cast<unsigned long long>(route.completed),
        static_cast<unsigned long long>(route.failed),
        static_cast<unsigned long long>(route.cache_hits), route.service_ewma_us / 1e3,
        static_cast<double>(route.peak_activation_bytes) / 1024.0);
  }
  if (stats.video_frames > 0) {
    const std::uint64_t tiles = stats.video_tiles_reused + stats.video_tiles_recomputed;
    std::printf("video    frames %llu (delta %llu)  tiles reused %llu/%llu (%.1f%%)  "
                "sessions %zu  evictions %llu\n",
                static_cast<unsigned long long>(stats.video_frames),
                static_cast<unsigned long long>(stats.video_delta_frames),
                static_cast<unsigned long long>(stats.video_tiles_reused),
                static_cast<unsigned long long>(tiles),
                tiles > 0 ? 100.0 * static_cast<double>(stats.video_tiles_reused) /
                                static_cast<double>(tiles)
                          : 0.0,
                sharded.video.sessions,
                static_cast<unsigned long long>(sharded.video.evictions));
  }
  if (config.serve.cache_entries > 0) {
    const serve::CacheStats& cache = sharded.cache;
    const std::uint64_t probes = cache.hits + cache.misses;
    std::printf("cache    hits %llu/%llu (%.1f%%)  entries %zu/%zu  evictions %llu\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(probes),
                probes > 0 ? 100.0 * static_cast<double>(cache.hits) / static_cast<double>(probes)
                           : 0.0,
                cache.entries, config.serve.cache_entries,
                static_cast<unsigned long long>(cache.evictions));
  }
}

int run_listen(const cli::ServeCliConfig& config) {
  ThreadPool::set_global_threads(static_cast<unsigned>(config.threads));
  const serve::NetworkRegistry registry = build_registry(config, config.seed);
  serve::ShardedServer server(registry, config.serve);
  serve::net::NetServerOptions net_options;
  net_options.port = static_cast<std::uint16_t>(config.listen_port);
  net_options.bind_address = config.bind_address;
  net_options.auth_token = config.auth_token;
  net_options.io_shards = static_cast<std::size_t>(config.io_shards);
  serve::net::NetServer net(server, net_options);

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  // The "listening on" line is the readiness handshake for scripts (CI greps
  // it for the port); keep it first and flushed.
  std::printf("sesr-serve: listening on %s:%u | routes %s | io-shards %lld%s | slo p99 %.1f ms\n",
              config.bind_address.c_str(), static_cast<unsigned>(net.port()),
              route_list_string(config).c_str(), static_cast<long long>(config.io_shards),
              config.auth_token.empty() ? "" : " | auth on", config.slo_p99_ms);
  std::fflush(stdout);

  const auto start = std::chrono::steady_clock::now();
  const auto stop_at = config.duration_s > 0.0
                           ? start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(config.duration_s))
                           : std::chrono::steady_clock::time_point::max();
  while (g_stop == 0 && std::chrono::steady_clock::now() < stop_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("sesr-serve: draining\n");
  std::fflush(stdout);
  // Order matters: stop the socket front end first (flushes every in-flight
  // response), then drain and stop the inference server.
  net.shutdown();
  server.begin_drain();
  server.shutdown();

  const serve::net::NetStats ns = net.stats();
  std::printf("net  conns %llu (rejected %llu)  requests %llu (http %llu)  responses %llu  "
              "malformed %llu  disconnects %llu  timeouts %llu  auth-failures %llu  "
              "accept-errors %llu\n",
              static_cast<unsigned long long>(ns.connections_accepted),
              static_cast<unsigned long long>(ns.connections_rejected),
              static_cast<unsigned long long>(ns.requests),
              static_cast<unsigned long long>(ns.http_requests),
              static_cast<unsigned long long>(ns.responses),
              static_cast<unsigned long long>(ns.malformed),
              static_cast<unsigned long long>(ns.disconnects),
              static_cast<unsigned long long>(ns.timeouts),
              static_cast<unsigned long long>(ns.auth_failures),
              static_cast<unsigned long long>(ns.accept_errors));
  for (std::size_t i = 0; i < ns.shards.size(); ++i) {
    const serve::net::NetShardStats& shard = ns.shards[i];
    std::printf("net  shard %zu  conns %llu  requests %llu  responses %llu\n", i,
                static_cast<unsigned long long>(shard.connections_accepted),
                static_cast<unsigned long long>(shard.requests),
                static_cast<unsigned long long>(shard.responses));
  }
  print_server_stats(config, server.stats());
  return 0;
}

}  // namespace

// Exit codes: 0 after a clean drain, 2 for a bad command line (with the
// option table), 1 for any runtime failure such as a bind error.
int main(int argc, char** argv) {
  try {
    const cli::Args args(cli::serve_cli_options(), argc, argv);
    return run_listen(cli::parse_serve_cli(args));
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "sesr-serve: %s\n\n", e.what());
    const cli::Args usage(cli::serve_cli_options(), 1, argv);
    usage.usage("sesr-serve", "TCP/HTTP front end for the sharded server");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sesr-serve: %s\n", e.what());
    return 1;
  }
}
