// Option table and validation for the sesr-serve load generator, separated
// from main() so tests/test_cli.cpp can drive the parser in-process. Every
// validation failure throws UsageError; sesr-serve turns that into the usage
// table plus a nonzero exit.
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
  std::string net = "m5";                                  // m3|m5|m7|m11|xl
  std::int64_t scale = 2;
  // Sharded serving: every route the server loads (always >= 1 entry; the
  // single-network flags --net/--scale/--precision populate one route when
  // --networks is not given). Traffic cycles through routes round-robin.
  std::vector<serve::RouteKey> routes;
  std::int64_t unique_frames = 1;                          // distinct frames per (route, shape)
  double qps = 0.0;                                        // 0 = closed loop
  std::int64_t frames = 256;                               // total request count
  double duration_s = 0.0;                                 // >0 = run for wall time
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;  // (H, W) mix
  std::int64_t threads = 1;                                // intra-op pool width
  std::uint64_t seed = 1;

  // TCP modes (mutually exclusive; both off = in-process load generator).
  std::int64_t listen_port = -1;   // >= 0: serve the routes on bind_address:port (0 = ephemeral)
  std::string bind_address = "127.0.0.1";  // server mode: "0.0.0.0" needs --auth-token
  std::string auth_token;          // shared secret (server requires, client sends)
  std::int64_t io_shards = 1;      // server mode: SO_REUSEPORT listener shards
  std::string connect_host;        // non-empty: drive a remote server instead
  std::uint16_t connect_port = 0;
  std::int64_t clients = 4;        // client mode: concurrent connections
  double deadline_ms = 0.0;        // per-request deadline (0 = none)
  double slo_p99_ms = 0.0;         // server mode: SLO budget for admission (0 = off)
  std::string chaos = "none";      // client mode: none|malformed|disconnect

  // Video replay (--video != none): each client (or route, in-process) runs
  // one closed-loop session over a seeded synthetic sequence of the given
  // temporal pattern, submitting consecutive frame seqs so the server's
  // tile-delta path can engage.
  std::string video = "none";      // none|static|pan|cut|sparkle|mixed
};

inline std::vector<Args::Option> serve_cli_options() {
  return {
      {"net", "m5", "SESR config: m3|m5|m7|m11|xl"},
      {"scale", "2", "upscale factor: 2 or 4"},
      {"networks", "auto", "sharded routes name:scale[:precision], e.g. m5:2,m11:2:fp16 "
                           "(auto = one route from --net/--scale/--precision)"},
      {"cache-entries", "0", "bit-exact LRU response cache capacity (0 = off)"},
      {"unique-frames", "1", "distinct frames per route+shape; 1 = maximal repetition"},
      {"workers", "4", "worker sessions (>= 1)"},
      {"queue-capacity", "64", "per-route bound on queued requests"},
      {"policy", "block", "overload policy: block|reject"},
      {"mode", "full", "execution: full|tiled|auto"},
      {"precision", "fp32", "worker arithmetic: fp32|fp16|int8|hybrid"},
      {"tile", "64", "LR tile edge for tiled/auto modes"},
      {"qps", "0", "open-loop Poisson arrival rate; 0 = closed loop"},
      {"frames", "256", "total frames to submit (exclusive with --duration-s)"},
      {"duration-s", "0", "run for this many seconds (exclusive with --frames)"},
      {"shapes", "64x64", "comma list of LR HxW shapes, e.g. 64x64,128x96"},
      {"threads", "1", "intra-op threads per upscale (1 = workers scale freely)"},
      {"seed", "1", "rng seed for weights, frames, and arrivals"},
      {"listen", "-1", "serve over TCP on --bind:PORT (0 = ephemeral; prints the port)"},
      {"bind", "127.0.0.1", "server bind address; 0.0.0.0 accepts from any interface "
                            "and requires --auth-token"},
      {"auth-token", "none", "shared-secret request token (server: require it; "
                             "client: send it; none = no auth)"},
      {"io-shards", "1", "server: SO_REUSEPORT listener shards, one IO thread each"},
      {"connect", "none", "drive a remote server at HOST:PORT (none = in-process)"},
      {"clients", "4", "client mode: concurrent connections (closed loop each)"},
      {"deadline-ms", "0", "per-request deadline in milliseconds (0 = none)"},
      {"slo-p99-ms", "0", "server p99 latency budget for SLO admission (0 = off)"},
      {"slo-headroom", "1.0", "admit while estimate <= headroom * budget; below 1.0 "
                              "sheds early to absorb estimator noise"},
      {"chaos", "none", "client mode fault injection: none|malformed|disconnect"},
      {"video", "none", "video session replay: none|static|pan|cut|sparkle|mixed "
                        "(closed-loop sequences through the tile-delta path)"},
      {"video-sessions", "64", "server: max live video sessions for tile-delta reuse (0 = off)"},
  };
}

inline std::vector<std::pair<std::int64_t, std::int64_t>> parse_shapes(const std::string& list) {
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    const std::size_t x = item.find('x');
    if (item.empty() || x == std::string::npos) {
      throw UsageError("bad --shapes entry '" + item + "' (expected HxW, e.g. 64x64)");
    }
    try {
      const std::int64_t h = std::stoll(item.substr(0, x));
      const std::int64_t w = std::stoll(item.substr(x + 1));
      if (h < 1 || w < 1) throw UsageError("--shapes dims must be positive: '" + item + "'");
      shapes.emplace_back(h, w);
    } catch (const UsageError&) {
      throw;
    } catch (const std::exception&) {
      throw UsageError("bad --shapes entry '" + item + "' (expected HxW, e.g. 64x64)");
    }
    pos = comma + 1;
  }
  return shapes;
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
  config.net = args.get("net");
  if (config.net != "m3" && config.net != "m5" && config.net != "m7" && config.net != "m11" &&
      config.net != "xl") {
    throw UsageError("unknown --net '" + config.net + "' (expected m3|m5|m7|m11|xl)");
  }
  config.scale = args.get_int("scale");
  if (config.scale != 2 && config.scale != 4) throw UsageError("--scale must be 2 or 4");

  const std::int64_t workers = args.get_int("workers");
  if (workers < 1) throw UsageError("--workers must be >= 1");
  config.serve.workers = static_cast<int>(workers);
  const std::int64_t capacity = args.get_int("queue-capacity");
  if (capacity < 1) throw UsageError("--queue-capacity must be >= 1");
  config.serve.queue_capacity = static_cast<std::size_t>(capacity);

  const std::string policy = args.get("policy");
  if (policy == "block") config.serve.overload = serve::OverloadPolicy::kBlock;
  else if (policy == "reject") config.serve.overload = serve::OverloadPolicy::kReject;
  else throw UsageError("unknown --policy '" + policy + "' (expected block|reject)");

  const std::string mode = args.get("mode");
  if (mode == "full") config.serve.mode = serve::ExecMode::kFullFrame;
  else if (mode == "tiled") config.serve.mode = serve::ExecMode::kTiled;
  else if (mode == "auto") config.serve.mode = serve::ExecMode::kAuto;
  else throw UsageError("unknown --mode '" + mode + "' (expected full|tiled|auto)");

  const std::string precision = args.get("precision");
  if (precision == "fp32") config.serve.precision = core::InferencePrecision::kFp32;
  else if (precision == "fp16") config.serve.precision = core::InferencePrecision::kFp16;
  else if (precision == "int8") config.serve.precision = core::InferencePrecision::kInt8;
  else if (precision == "hybrid") config.serve.precision = core::InferencePrecision::kHybrid;
  else throw UsageError("unknown --precision '" + precision + "' (expected fp32|fp16|int8|hybrid)");

  const std::int64_t tile = args.get_int("tile");
  if (tile < 1) throw UsageError("--tile must be >= 1");
  config.serve.tiling.tile_h = tile;
  config.serve.tiling.tile_w = tile;

  config.qps = args.get_double("qps");
  if (config.qps < 0.0) throw UsageError("--qps must be >= 0 (0 = closed loop)");

  config.frames = args.get_int("frames");
  config.duration_s = args.get_double("duration-s");
  if (config.duration_s < 0.0) throw UsageError("--duration-s must be >= 0");
  // Mutually exclusive stop conditions: a non-default --frames together with
  // --duration-s is ambiguous, so refuse rather than guess.
  if (config.duration_s > 0.0 && args.get("frames") != "256") {
    throw UsageError("--frames and --duration-s are mutually exclusive; give one");
  }
  if (config.frames < 1 && config.duration_s <= 0.0) {
    throw UsageError("--frames must be >= 1 (or use --duration-s)");
  }

  config.shapes = parse_shapes(args.get("shapes"));
  config.threads = args.get_int("threads");
  if (config.threads < 1) throw UsageError("--threads must be >= 1");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const std::string networks = args.get("networks");
  if (networks != "auto" && !networks.empty()) {
    config.routes = parse_networks(networks);
  } else {
    config.routes = {serve::RouteKey{config.net, config.scale, config.serve.precision}};
  }

  const std::int64_t cache_entries = args.get_int("cache-entries");
  if (cache_entries < 0) throw UsageError("--cache-entries must be >= 0");
  config.serve.cache_entries = static_cast<std::size_t>(cache_entries);

  config.unique_frames = args.get_int("unique-frames");
  if (config.unique_frames < 1) throw UsageError("--unique-frames must be >= 1");

  config.listen_port = args.get_int("listen");
  if (config.listen_port > 65535) throw UsageError("--listen port must be <= 65535");
  config.bind_address = args.get("bind");
  if (config.bind_address.empty()) throw UsageError("--bind must not be empty");
  const std::string auth_token = args.get("auth-token");
  if (auth_token != "none") config.auth_token = auth_token;  // "none" sentinel, as --connect
  if (config.auth_token.size() > 4096) {
    throw UsageError("--auth-token must be at most 4096 bytes");
  }
  config.io_shards = args.get_int("io-shards");
  if (config.io_shards < 1 || config.io_shards > 64) {
    throw UsageError("--io-shards must be between 1 and 64");
  }
  if (config.bind_address != "127.0.0.1" && config.listen_port < 0) {
    throw UsageError("--bind only makes sense with --listen (server mode)");
  }
  if (config.io_shards != 1 && config.listen_port < 0) {
    throw UsageError("--io-shards only makes sense with --listen (server mode)");
  }
  if (!serve::net::is_loopback_address(config.bind_address) && config.auth_token.empty()) {
    throw UsageError("--bind beyond loopback requires --auth-token (refusing an open, "
                     "unauthenticated listener)");
  }
  // "none" sentinel rather than empty: cli_args treats an empty default as a
  // boolean flag and would never consume the HOST:PORT value.
  const std::string connect = args.get("connect");
  if (!connect.empty() && connect != "none") {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= connect.size()) {
      throw UsageError("--connect expects HOST:PORT, e.g. 127.0.0.1:7788");
    }
    config.connect_host = connect.substr(0, colon);
    try {
      const int port = std::stoi(connect.substr(colon + 1));
      if (port < 1 || port > 65535) throw std::out_of_range("port");
      config.connect_port = static_cast<std::uint16_t>(port);
    } catch (const std::exception&) {
      throw UsageError("bad --connect port in '" + connect + "'");
    }
  }
  if (config.listen_port >= 0 && !config.connect_host.empty()) {
    throw UsageError("--listen and --connect are mutually exclusive");
  }
  config.clients = args.get_int("clients");
  if (config.clients < 1) throw UsageError("--clients must be >= 1");
  config.deadline_ms = args.get_double("deadline-ms");
  if (config.deadline_ms < 0.0) throw UsageError("--deadline-ms must be >= 0");
  config.slo_p99_ms = args.get_double("slo-p99-ms");
  if (config.slo_p99_ms < 0.0) throw UsageError("--slo-p99-ms must be >= 0");
  config.serve.slo.p99_budget_us = static_cast<std::int64_t>(config.slo_p99_ms * 1000.0);
  config.serve.slo.headroom = args.get_double("slo-headroom");
  if (config.serve.slo.headroom <= 0.0 || config.serve.slo.headroom > 1.0) {
    throw UsageError("--slo-headroom must be in (0, 1]");
  }
  config.chaos = args.get("chaos");
  if (config.chaos != "none" && config.chaos != "malformed" && config.chaos != "disconnect") {
    throw UsageError("unknown --chaos '" + config.chaos + "' (expected none|malformed|disconnect)");
  }
  if (config.chaos != "none" && config.connect_host.empty()) {
    throw UsageError("--chaos requires --connect (it drives a live server)");
  }

  config.video = args.get("video");
  if (config.video != "none" && config.video != "static" && config.video != "pan" &&
      config.video != "cut" && config.video != "sparkle" && config.video != "mixed") {
    throw UsageError("unknown --video '" + config.video +
                     "' (expected none|static|pan|cut|sparkle|mixed)");
  }
  // Delta reuse needs frame N published before frame N+1 is planned; an
  // open-loop replay would pipeline seqs and measure only full-path
  // fallbacks, so refuse the ambiguous combination.
  if (config.video != "none" && config.qps > 0.0) {
    throw UsageError("--video replays sessions closed-loop; it is incompatible with --qps");
  }
  if (config.video != "none" && config.chaos == "malformed") {
    throw UsageError("--chaos malformed ignores --video; use --chaos disconnect for the "
                     "mid-session case");
  }
  const std::int64_t video_sessions = args.get_int("video-sessions");
  if (video_sessions < 0) throw UsageError("--video-sessions must be >= 0");
  config.serve.video_sessions = static_cast<std::size_t>(video_sessions);
  return config;
}

}  // namespace sesr::cli
