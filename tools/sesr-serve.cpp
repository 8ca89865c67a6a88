// sesr-serve — synthetic-traffic load generator AND TCP front end for the
// sharded eval server.
//
// Three modes:
//
//   in-process (default): spins up a ShardedServer over one or more freshly
//     initialized collapsed SESR networks (--networks m5:2,m11:2:fp16; a
//     single --net/--scale route by default) and drives it directly:
//       open loop  (--qps > 0): Poisson arrivals at the requested rate — the
//         honest way to measure tail latency under a fixed offered load.
//       closed loop (--qps 0): submits as fast as the bounded queue admits.
//   --listen PORT: same server, exposed on 127.0.0.1:PORT via the
//     length-prefixed wire protocol (serve/net). --slo-p99-ms arms SLO
//     admission (shed / degrade under overload). Runs until --duration-s or
//     SIGINT/SIGTERM, then drains gracefully: every accepted request
//     completes before threads join.
//   --connect HOST:PORT: client-mode load generator over the real socket
//     path: --clients closed-loop connections (Poisson-paced when --qps > 0),
//     per-request --deadline-ms, and --chaos malformed|disconnect fault
//     injection for resilience checks.
//
// Traffic cycles round-robin over routes x shapes x --unique-frames distinct
// frames, so --cache-entries with unique-frames=1 exercises the bit-exact
// response cache at maximal repetition. Prints per-request latency
// percentiles (p50/p95/p99), achieved FPS, dispatched units and tiles, reject
// counts, per-route counters, and cache hit rates. docs/SERVING.md explains
// how to read them.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_network.hpp"
#include "data/video.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/registry.hpp"
#include "serve/request_queue.hpp"
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

// ----------------------------------------------------------- video sequences

// The replayed session for --video: a seeded synthetic sequence at the first
// --shapes entry. `salt` decorrelates sessions (one per route in-process, one
// per connection in client mode) while keeping every run replayable from
// --seed alone.
std::vector<Tensor> session_sequence(const cli::ServeCliConfig& config, std::int64_t frames,
                                     std::uint64_t salt) {
  data::VideoSequenceOptions vopts;
  vopts.pattern = data::parse_video_pattern(config.video);
  vopts.frames = frames;
  vopts.h = config.shapes.front().first;
  vopts.w = config.shapes.front().second;
  return data::synthesize_video(vopts, config.seed * 7919 + salt);
}

// ------------------------------------------------------------ in-process mode

// --video replay: one closed-loop session per route, consecutive seqs, every
// frame's future awaited before the next submit so the tile-delta path sees
// its predecessor published. Reports delta engagement and tile reuse next to
// the usual throughput numbers.
int run_local_video(const cli::ServeCliConfig& config) {
  ThreadPool::set_global_threads(static_cast<unsigned>(config.threads));
  const serve::NetworkRegistry registry = build_registry(config, config.seed);
  serve::ShardedServer server(registry, config.serve);
  const std::vector<Tensor> frames = session_sequence(config, config.frames, 0);

  std::printf("sesr-serve: %s | video=%s frames=%lld %lldx%lld | workers=%d sessions=%zu\n",
              route_list_string(config).c_str(), config.video.c_str(),
              static_cast<long long>(config.frames),
              static_cast<long long>(config.shapes.front().first),
              static_cast<long long>(config.shapes.front().second), config.serve.workers,
              config.serve.video_sessions);

  std::atomic<std::uint64_t> delta_frames{0};
  std::atomic<std::int64_t> errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::size_t r = 0; r < config.routes.size(); ++r) {
    producers.emplace_back([&, r] {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        serve::VideoOptions video;
        video.session_id = r + 1;
        video.seq = i + 1;
        try {
          serve::AdmitResult admitted = server.submit_video(config.routes[r], frames[i], video);
          if (admitted.delta) delta_frames.fetch_add(1, std::memory_order_relaxed);
          admitted.future.get();
        } catch (const std::exception& e) {
          if (errors.fetch_add(1, std::memory_order_relaxed) == 0) {
            std::fprintf(stderr, "video frame failed: %s\n", e.what());
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  server.shutdown();

  const serve::ShardedStats sharded = server.stats();
  std::printf("video replay: %llu frames in %.2fs (%.1f fps)  delta engaged %llu/%llu\n",
              static_cast<unsigned long long>(sharded.total.video_frames), wall,
              static_cast<double>(sharded.total.video_frames) / wall,
              static_cast<unsigned long long>(delta_frames.load()),
              static_cast<unsigned long long>(sharded.total.video_frames));
  print_server_stats(config, sharded);
  return errors.load() == 0 ? 0 : 1;
}

int run_local(const cli::ServeCliConfig& config) {
  if (config.video != "none") return run_local_video(config);
  ThreadPool::set_global_threads(static_cast<unsigned>(config.threads));
  Rng rng(config.seed);
  const serve::NetworkRegistry registry = build_registry(config, config.seed);
  serve::ShardedServer server(registry, config.serve);

  // Pre-generated frames: unique_frames per (route, shape); traffic cycles
  // route-major through the mix so every shard sees every shape.
  struct Stimulus {
    serve::RouteKey route;
    Tensor frame;
  };
  std::vector<Stimulus> stimuli;
  for (const serve::RouteKey& route : config.routes) {
    for (const auto& [h, w] : config.shapes) {
      for (std::int64_t u = 0; u < config.unique_frames; ++u) {
        Tensor frame(1, h, w, 1);
        frame.fill_uniform(rng, 0.0F, 1.0F);
        stimuli.push_back({route, std::move(frame)});
      }
    }
  }

  std::printf("sesr-serve: %s | workers=%d queue=%zu cache=%zu\n",
              route_list_string(config).c_str(), config.serve.workers,
              config.serve.queue_capacity, config.serve.cache_entries);

  std::mt19937_64 arrivals(config.seed ^ 0x9E3779B97F4A7C15ULL);
  std::exponential_distribution<double> inter_arrival(config.qps > 0.0 ? config.qps : 1.0);
  const auto start = std::chrono::steady_clock::now();
  const auto stop_at = config.duration_s > 0.0
                           ? start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(config.duration_s))
                           : std::chrono::steady_clock::time_point::max();

  std::vector<std::future<Tensor>> pending;
  auto next_arrival = start;
  std::int64_t submitted = 0;
  for (std::int64_t i = 0; config.duration_s > 0.0 || i < config.frames; ++i) {
    if (std::chrono::steady_clock::now() >= stop_at) break;
    if (config.qps > 0.0) {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(inter_arrival(arrivals)));
    }
    const Stimulus& s = stimuli[static_cast<std::size_t>(i) % stimuli.size()];
    pending.push_back(server.submit(s.route, s.frame));
    ++submitted;
  }
  std::int64_t dropped = 0;
  std::int64_t errors = 0;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (const serve::QueueFullError&) {
      ++dropped;
    } catch (const std::exception& e) {
      if (++errors == 1) std::fprintf(stderr, "request failed: %s\n", e.what());
    }
  }
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  server.shutdown();
  const serve::ShardedStats sharded = server.stats();
  const serve::ServerStats& stats = sharded.total;

  std::printf("submitted %lld  completed %llu  dropped %lld  errors %lld\n",
              static_cast<long long>(submitted),
              static_cast<unsigned long long>(stats.completed), static_cast<long long>(dropped),
              static_cast<long long>(errors));
  std::printf("offered %s  achieved %.1f fps  dispatched %llu units (%llu tiles)\n",
              config.qps > 0.0 ? (std::to_string(config.qps) + " qps").c_str() : "closed-loop",
              static_cast<double>(stats.completed) / wall,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.tiles));
  print_server_stats(config, sharded);
  return errors == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- server mode

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

// ---------------------------------------------------------------- client mode

Tensor client_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  Rng rng(seed);
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

int run_chaos(const cli::ServeCliConfig& config) {
  auto make_client = [&config] {
    serve::net::NetClient client(config.connect_host, config.connect_port);
    if (!config.auth_token.empty()) client.set_auth_token(config.auth_token);
    return client;
  };
  const std::string route = serve::route_string(config.routes.front());
  const Tensor frame = client_frame(config.seed, config.shapes.front().first,
                                    config.shapes.front().second);
  if (config.chaos == "malformed") {
    serve::net::NetClient bad = make_client();
    bad.send_raw({0xDE, 0xAD, 0xBE, 0xEF, 0x08, 0x00, 0x00, 0x00});
    const auto response = bad.recv_response();
    if (!response || response->status != serve::net::Status::kBadRequest) {
      std::fprintf(stderr, "chaos malformed: expected kBadRequest, got %s\n",
                   response ? std::to_string(static_cast<int>(response->status)).c_str()
                            : "connection close");
      return 1;
    }
    if (bad.recv_response() != std::nullopt) {
      std::fprintf(stderr, "chaos malformed: server kept a poisoned connection open\n");
      return 1;
    }
  } else if (config.video != "none") {
    // Mid-session disconnect: the video session is keyed by (route,
    // session_id), not by the connection, so its tile-delta state must
    // survive a client that vanishes mid-frame. Frames 1-2 over one
    // connection (frame 2 must take the delta path), then half of frame 3
    // and a hard disconnect; the session resumes on a fresh connection at
    // seq 3 and must still delta against frame 2's snapshot.
    const std::vector<Tensor> frames = session_sequence(config, 3, 42);
    const std::uint64_t session_id = 7001;
    serve::net::NetClient first = make_client();
    const serve::net::WireResponse r1 = first.upscale_video(route, frames[0], session_id, 1);
    const serve::net::WireResponse r2 = first.upscale_video(route, frames[1], session_id, 2);
    if (r1.status != serve::net::Status::kOk || r2.status != serve::net::Status::kOk ||
        (r2.flags & serve::net::kFlagDeltaReuse) == 0) {
      std::fprintf(stderr, "chaos disconnect(video): priming frames failed (delta flag %d)\n",
                   static_cast<int>(r2.flags));
      return 1;
    }
    serve::net::WireRequest torn;
    torn.id = 3;
    torn.video = true;
    torn.session_id = session_id;
    torn.frame_seq = 3;
    torn.route = route;
    torn.h = frames[2].shape().h();
    torn.w = frames[2].shape().w();
    torn.pixels = serve::net::frame_to_pixels(frames[2]);
    std::vector<std::uint8_t> bytes = serve::net::encode_request(torn);
    bytes.resize(bytes.size() / 2);  // half of frame 3, then vanish
    first.send_raw(bytes);
    first.disconnect();
    serve::net::NetClient second = make_client();
    const serve::net::WireResponse r3 = second.upscale_video(route, frames[2], session_id, 3);
    if (r3.status != serve::net::Status::kOk ||
        (r3.flags & serve::net::kFlagDeltaReuse) == 0) {
      std::fprintf(stderr,
                   "chaos disconnect(video): resumed frame not served by the delta path "
                   "(status %d flags %d)\n",
                   static_cast<int>(r3.status), static_cast<int>(r3.flags));
      return 1;
    }
    std::printf("chaos disconnect(video): session survived a mid-frame disconnect; "
                "seq 3 delta-served on %s\n",
                r3.route.c_str());
    return 0;
  } else {  // disconnect
    serve::net::WireRequest request;
    request.id = 1;
    request.route = route;
    request.h = frame.shape().h();
    request.w = frame.shape().w();
    request.pixels = serve::net::frame_to_pixels(frame);
    std::vector<std::uint8_t> bytes = serve::net::encode_request(request);
    bytes.resize(bytes.size() / 2);  // half a request, then vanish
    serve::net::NetClient half = make_client();
    half.send_raw(bytes);
    half.disconnect();
  }
  // Either way the server must still answer a clean connection.
  serve::net::NetClient probe = make_client();
  const serve::net::WireResponse response = probe.upscale(route, frame);
  if (response.status != serve::net::Status::kOk) {
    std::fprintf(stderr, "chaos %s: follow-up request failed with status %d (%s)\n",
                 config.chaos.c_str(), static_cast<int>(response.status),
                 response.message.c_str());
    return 1;
  }
  std::printf("chaos %s: server survived; follow-up request served on %s\n",
              config.chaos.c_str(), response.route.c_str());
  return 0;
}

int run_client(const cli::ServeCliConfig& config) {
  if (config.chaos != "none") return run_chaos(config);

  struct Stimulus {
    std::string route;
    Tensor frame;
  };
  std::vector<Stimulus> stimuli;
  Rng rng(config.seed);
  for (const serve::RouteKey& route : config.routes) {
    for (const auto& [h, w] : config.shapes) {
      for (std::int64_t u = 0; u < config.unique_frames; ++u) {
        Tensor frame(1, h, w, 1);
        frame.fill_uniform(rng, 0.0F, 1.0F);
        stimuli.push_back({serve::route_string(route), std::move(frame)});
      }
    }
  }

  const auto deadline_us = static_cast<std::uint32_t>(config.deadline_ms * 1000.0);
  const std::int64_t frames_per_client =
      config.duration_s > 0.0 ? 0 : std::max<std::int64_t>(1, config.frames / config.clients);
  const auto start = std::chrono::steady_clock::now();
  const auto stop_at = config.duration_s > 0.0
                           ? start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(config.duration_s))
                           : std::chrono::steady_clock::time_point::max();

  std::atomic<std::uint64_t> ok{0}, overloaded{0}, shutting_down{0}, degraded{0}, errors{0};
  std::atomic<std::uint64_t> video_delta{0};
  std::mutex latency_mutex;
  std::vector<double> latency_us;

  auto worker = [&](std::int64_t index) {
    try {
      serve::net::NetClient client(config.connect_host, config.connect_port);
      if (!config.auth_token.empty()) client.set_auth_token(config.auth_token);
      std::mt19937_64 arrivals(config.seed ^ (0x9E3779B97F4A7C15ULL + index));
      const double rate = config.qps > 0.0 ? config.qps / static_cast<double>(config.clients) : 0;
      std::exponential_distribution<double> inter_arrival(rate > 0.0 ? rate : 1.0);
      auto next_arrival = std::chrono::steady_clock::now();
      std::vector<double> local_latency;
      // --video: this connection replays one session (its own seeded
      // sequence, consecutive seqs). In duration mode the sequence cycles;
      // the wrap reads as a scene cut and simply costs one full re-upscale.
      std::vector<Tensor> session_frames;
      std::string session_route;
      if (config.video != "none") {
        session_frames = session_sequence(
            config, frames_per_client == 0 ? config.frames : frames_per_client,
            static_cast<std::uint64_t>(index) + 1);
        session_route = serve::route_string(
            config.routes[static_cast<std::size_t>(index) % config.routes.size()]);
      }
      for (std::int64_t i = 0; frames_per_client == 0 || i < frames_per_client; ++i) {
        if (std::chrono::steady_clock::now() >= stop_at) break;
        if (rate > 0.0) {
          std::this_thread::sleep_until(next_arrival);
          next_arrival += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(inter_arrival(arrivals)));
        }
        const Stimulus& s =
            stimuli[static_cast<std::size_t>(index + i * config.clients) % stimuli.size()];
        const auto sent = std::chrono::steady_clock::now();
        const serve::net::WireResponse response =
            config.video != "none"
                ? client.upscale_video(
                      session_route,
                      session_frames[static_cast<std::size_t>(i) % session_frames.size()],
                      5000 + static_cast<std::uint64_t>(index),
                      static_cast<std::uint32_t>(i + 1), deadline_us)
                : client.upscale(s.route, s.frame, deadline_us);
        if (response.status == serve::net::Status::kOk &&
            (response.flags & serve::net::kFlagDeltaReuse) != 0) {
          video_delta.fetch_add(1, std::memory_order_relaxed);
        }
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - sent)
                              .count();
        switch (response.status) {
          case serve::net::Status::kOk:
            ok.fetch_add(1, std::memory_order_relaxed);
            local_latency.push_back(us);
            if (response.flags & serve::net::kFlagDegraded) {
              degraded.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          case serve::net::Status::kOverloaded:
            overloaded.fetch_add(1, std::memory_order_relaxed);
            // Closed-loop clients back off on a typed overload answer, as in
            // the bench's SLO sweep: an immediate retry busy-spins on the
            // admission check and steals the CPU the workers need to clear
            // the very overload being reported. Staggered per client so the
            // herd does not re-synchronize. Open loop keeps its arrival
            // process — shed-and-continue is the behavior being measured.
            if (rate <= 0.0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(4 + index));
            }
            break;
          case serve::net::Status::kShuttingDown:
            shutting_down.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            errors.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latency_us.insert(latency_us.end(), local_latency.begin(), local_latency.end());
    } catch (const std::exception& e) {
      errors.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "client %lld: %s\n", static_cast<long long>(index), e.what());
    }
  };

  std::vector<std::thread> clients;
  for (std::int64_t c = 0; c < config.clients; ++c) clients.emplace_back(worker, c);
  for (std::thread& t : clients) t.join();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const std::uint64_t completed = ok.load();
  std::printf("client: %llu ok (%0.1f fps)  %llu overloaded  %llu shutting-down  %llu degraded  "
              "%llu errors\n",
              static_cast<unsigned long long>(completed),
              wall > 0 ? static_cast<double>(completed) / wall : 0.0,
              static_cast<unsigned long long>(overloaded.load()),
              static_cast<unsigned long long>(shutting_down.load()),
              static_cast<unsigned long long>(degraded.load()),
              static_cast<unsigned long long>(errors.load()));
  if (config.video != "none") {
    std::printf("client video: %llu/%llu frames served by the tile-delta path\n",
                static_cast<unsigned long long>(video_delta.load()),
                static_cast<unsigned long long>(completed));
  }
  std::printf("client latency  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
              serve::percentile(latency_us, 50.0) / 1e3, serve::percentile(latency_us, 95.0) / 1e3,
              serve::percentile(latency_us, 99.0) / 1e3);
  return errors.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args(cli::serve_cli_options(), argc, argv);
    const cli::ServeCliConfig config = cli::parse_serve_cli(args);
    if (config.listen_port >= 0) return run_listen(config);
    if (!config.connect_host.empty()) return run_client(config);
    return run_local(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sesr-serve: %s\n\n", e.what());
    const cli::Args usage(cli::serve_cli_options(), 1, argv);
    usage.usage("sesr-serve", "load generator and TCP front end for the sharded eval server");
    return 2;
  }
}
