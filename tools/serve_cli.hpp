// Option table and validation for sesr-serve, separated from main() so
// tests/test_cli.cpp (and servebench's traced run) can drive the parser
// in-process. Every validation failure throws UsageError; sesr-serve turns
// that into the usage table plus a nonzero exit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "serve/net/socket.hpp"
#include "serve/registry.hpp"
#include "serve/serve_options.hpp"

namespace sesr::cli {

struct ServeCliConfig {
  serve::ServeOptions serve;
  // Every route the server loads (always >= 1 entry).
  std::vector<serve::RouteKey> routes;
  double duration_s = 0.0;         // >0 = serve for this wall time, then drain
  std::int64_t threads = 1;        // intra-op pool width
  std::uint64_t seed = 1;          // weights and int8 calibration frames

  std::int64_t listen_port = 0;    // 0 = ephemeral (the banner prints the port)
  std::string bind_address = "127.0.0.1";  // "0.0.0.0" needs --auth-token
  std::string auth_token;          // shared secret every request must carry
  std::int64_t io_shards = 1;      // SO_REUSEPORT listener shards
  double slo_p99_ms = 0.0;         // SLO budget for admission (0 = off)
};

inline std::vector<Args::Option> serve_cli_options() {
  return {
      {"networks", "m5:2:fp32", "served routes name:scale[:precision], e.g. m5:2,m11:2:fp16"},
      {"cache-entries", "0", "bit-exact LRU response cache capacity (0 = off)"},
      {"workers", "4", "worker sessions (>= 1)"},
      {"queue-capacity", "64", "per-route bound on queued requests"},
      {"mode", "full", "execution: full|tiled|auto"},
      {"tile", "64", "LR tile edge for tiled/auto modes"},
      {"duration-s", "0", "serve for this many seconds, then drain (0 = until SIGINT/SIGTERM)"},
      {"threads", "1", "intra-op threads per upscale (1 = workers scale freely)"},
      {"seed", "1", "rng seed for weights and int8 calibration"},
      {"listen", "0", "TCP port on --bind (0 = ephemeral; the banner prints the port)"},
      {"bind", "127.0.0.1", "bind address; 0.0.0.0 accepts from any interface "
                            "and requires --auth-token"},
      {"auth-token", "none", "shared-secret request token to require (none = no auth)"},
      {"io-shards", "1", "SO_REUSEPORT listener shards, one IO thread each"},
      {"slo-p99-ms", "0", "p99 latency budget for SLO admission (0 = off)"},
      {"slo-headroom", "1.0", "admit while estimate <= headroom * budget; below 1.0 "
                              "sheds early to absorb estimator noise"},
      {"video-sessions", "64", "max live video sessions for tile-delta reuse (0 = off)"},
  };
}

inline bool known_net(const std::string& name) {
  return name == "m3" || name == "m5" || name == "m7" || name == "m11" || name == "xl";
}

// Parses the --networks route list; throws UsageError on malformed specs,
// unknown nets, bad scales, or duplicate routes.
inline std::vector<serve::RouteKey> parse_networks(const std::string& list) {
  std::vector<serve::RouteKey> routes;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    serve::RouteKey route;
    try {
      route = serve::parse_route(item);
    } catch (const std::exception& e) {
      throw UsageError("bad --networks entry '" + item + "': " + e.what());
    }
    if (!known_net(route.network)) {
      throw UsageError("unknown net '" + route.network + "' in --networks (expected m3|m5|m7|m11|xl)");
    }
    if (route.scale != 2 && route.scale != 4) {
      throw UsageError("--networks scale must be 2 or 4 in '" + item + "'");
    }
    for (const serve::RouteKey& existing : routes) {
      if (existing == route) throw UsageError("duplicate --networks route '" + item + "'");
    }
    routes.push_back(std::move(route));
    pos = comma + 1;
  }
  return routes;
}

// Parses and validates; throws UsageError on any bad or contradictory value.
inline ServeCliConfig parse_serve_cli(const Args& args) {
  ServeCliConfig config;
  config.routes = parse_networks(args.get("networks"));

  const std::int64_t workers = args.get_int("workers");
  if (workers < 1) throw UsageError("--workers must be >= 1");
  config.serve.workers = static_cast<int>(workers);
  const std::int64_t capacity = args.get_int("queue-capacity");
  if (capacity < 1) throw UsageError("--queue-capacity must be >= 1");
  config.serve.queue_capacity = static_cast<std::size_t>(capacity);

  const std::string mode = args.get("mode");
  if (mode == "full") config.serve.mode = serve::ExecMode::kFullFrame;
  else if (mode == "tiled") config.serve.mode = serve::ExecMode::kTiled;
  else if (mode == "auto") config.serve.mode = serve::ExecMode::kAuto;
  else throw UsageError("unknown --mode '" + mode + "' (expected full|tiled|auto)");

  const std::int64_t tile = args.get_int("tile");
  if (tile < 1) throw UsageError("--tile must be >= 1");
  config.serve.tiling.tile_h = tile;
  config.serve.tiling.tile_w = tile;

  config.duration_s = args.get_double("duration-s");
  if (config.duration_s < 0.0) throw UsageError("--duration-s must be >= 0");
  config.threads = args.get_int("threads");
  if (config.threads < 1) throw UsageError("--threads must be >= 1");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const std::int64_t cache_entries = args.get_int("cache-entries");
  if (cache_entries < 0) throw UsageError("--cache-entries must be >= 0");
  config.serve.cache_entries = static_cast<std::size_t>(cache_entries);

  config.listen_port = args.get_int("listen");
  if (config.listen_port < 0 || config.listen_port > 65535) {
    throw UsageError("--listen port must be between 0 and 65535");
  }
  config.bind_address = args.get("bind");
  if (config.bind_address.empty()) throw UsageError("--bind must not be empty");
  // "none" sentinel rather than empty: cli_args treats an empty default as a
  // boolean flag and would never consume the token value.
  const std::string auth_token = args.get("auth-token");
  if (auth_token != "none") config.auth_token = auth_token;
  if (config.auth_token.size() > 4096) {
    throw UsageError("--auth-token must be at most 4096 bytes");
  }
  config.io_shards = args.get_int("io-shards");
  if (config.io_shards < 1 || config.io_shards > 64) {
    throw UsageError("--io-shards must be between 1 and 64");
  }
  if (!serve::net::is_loopback_address(config.bind_address) && config.auth_token.empty()) {
    throw UsageError("--bind beyond loopback requires --auth-token (refusing an open, "
                     "unauthenticated listener)");
  }
  config.slo_p99_ms = args.get_double("slo-p99-ms");
  if (config.slo_p99_ms < 0.0) throw UsageError("--slo-p99-ms must be >= 0");
  config.serve.slo.p99_budget_us = static_cast<std::int64_t>(config.slo_p99_ms * 1000.0);
  config.serve.slo.headroom = args.get_double("slo-headroom");
  if (config.serve.slo.headroom <= 0.0 || config.serve.slo.headroom > 1.0) {
    throw UsageError("--slo-headroom must be in (0, 1]");
  }
  const std::int64_t video_sessions = args.get_int("video-sessions");
  if (video_sessions < 0) throw UsageError("--video-sessions must be >= 0");
  config.serve.video_sessions = static_cast<std::size_t>(video_sessions);
  return config;
}

}  // namespace sesr::cli
