// The traced run: hosts the workload's deployment in-process (ShardedServer
// + NetServer built from the same sesr-serve flags) and measures each layer
// from outside — client-side codec spans around the wire calls, the same
// steady schedule replayed through submit_admitted / submit_video without
// sockets, and single-threaded replays of the leaf calls each request made.
// End-to-end metrics never come from this run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "core/macs.hpp"
#include "core/tiled_inference.hpp"
#include "core/video_session.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "runs.hpp"
#include "serve/net/server.hpp"
#include "serve/sharded_server.hpp"
#include "serve/stats.hpp"
#include "serve_cli.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace servebench {

namespace {

namespace core = sesr::core;
namespace serve = sesr::serve;

constexpr std::size_t kReplayedRequests = 300;  // requests whose leaf calls are replayed
constexpr int kReps = 7;                        // timed repetitions of a standalone call
constexpr std::uint64_t kReplaySessionBase = 5000;

double ms(std::int64_t from, std::int64_t to) { return static_cast<double>(to - from) / 1e6; }

// Median wall time of fn() in ms after two untimed calls.
template <class F>
double median_call_ms(F&& fn) {
  fn();
  fn();
  std::vector<double> times;
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    times.push_back(ms(t0, now_ns()));
  }
  return median(times);
}

Tensor plane_tensor(const std::vector<float>& plane, std::int64_t h, std::int64_t w) {
  Tensor t(1, h, w, 1);
  std::copy(plane.begin(), plane.end(), t.raw());
  return t;
}

Tensor random_tensor(std::int64_t h, std::int64_t w, std::int64_t c, std::uint64_t seed) {
  sesr::Rng rng(seed);
  Tensor t(1, h, w, c);
  t.fill_uniform(rng, 0.0F, 1.0F);
  return t;
}

// One request of the in-process replay.
struct Submitted {
  std::int64_t due_ns = 0;
  std::int64_t call_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t return_ns = 0;  // submit call returned
  std::int64_t span = -1;   // serve.submit span
  std::size_t served = 0;   // route index that served it
  bool ok = false;
  bool delta = false;
  double compute_ms = 0.0;  // replayed leaf calls
  bool replayed = false;
};

// The steady schedule again, straight into the ShardedServer (no sockets):
// serve.submit spans from the call to the moment the future is ready.
std::vector<Submitted> replay_in_process(serve::ShardedServer& server, const Workload& workload,
                                         const std::vector<Scheduled>& schedule,
                                         std::uint64_t first_id, SpanLog& spans,
                                         std::uint64_t& mismatched) {
  const std::size_t n = schedule.size();
  std::vector<Tensor> frames;
  frames.reserve(n);
  for (const Scheduled& s : schedule) frames.push_back(workload.inputs[s.request.input].lr);
  auto done = std::make_unique<std::atomic<std::int64_t>[]>(n);
  std::vector<Submitted> out(n);
  std::vector<serve::AdmitResult> results;
  results.reserve(n);
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t k = 0; k < n; ++k) {
    const Request& req = schedule[k].request;
    out[k].due_ns = start + static_cast<std::int64_t>(schedule[k].due_s * 1e9);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(out[k].due_ns)));
    serve::SubmitOptions opts;
    std::atomic<std::int64_t>* slot = &done[k];
    opts.done_hook = [slot] { slot->store(now_ns(), std::memory_order_release); };
    out[k].call_ns = now_ns();
    const serve::RouteKey& route = workload.routes[req.route];
    if (req.session != 0) {
      results.push_back(server.submit_video(route, std::move(frames[k]),
                                            serve::VideoOptions{kReplaySessionBase + req.session, req.seq},
                                            std::move(opts)));
    } else {
      results.push_back(server.submit_admitted(route, std::move(frames[k]), std::move(opts)));
    }
    out[k].return_ns = now_ns();
  }
  for (std::size_t k = 0; k < n; ++k) {
    Submitted& s = out[k];
    const Input& in = workload.inputs[schedule[k].request.input];
    try {
      const Tensor hr = results[k].future.get();
      // The hook fires just after the future resolves, on every path; wait
      // for its timestamp (and so for it to stop touching `done`).
      while ((s.done_ns = done[k].load(std::memory_order_acquire)) == 0) std::this_thread::yield();
      s.delta = results[k].delta;
      for (std::size_t r = 0; r < workload.routes.size(); ++r) {
        if (serve::route_string(workload.routes[r]) == results[k].served_route) s.served = r;
      }
      const std::vector<float>& ref = in.ref[s.served];
      s.ok = static_cast<std::size_t>(hr.numel()) == ref.size() &&
             std::memcmp(hr.raw(), ref.data(), ref.size() * sizeof(float)) == 0;
      if (!s.ok) ++mismatched;
    } catch (const std::exception&) {
      s.ok = false;
      while (done[k].load(std::memory_order_acquire) == 0) std::this_thread::yield();
    }
    if (s.ok) s.span = spans.add("serve.submit", s.call_ns, s.done_ns, -1, first_id + k);
  }
  return out;
}

// Replays, single-threaded, the leaf calls the server made for one request:
// the full-frame plan, each tile of a tiled frame, or a video frame's probe,
// dirty tiles and splice. Returns the summed compute in ms.
double replay_leaves(const Workload& workload, const Scheduled& entry, const Submitted& sub,
                     std::vector<core::SesrInference>& replicas, const core::TilingOptions& tiling,
                     std::int64_t halo, std::int64_t threshold_pixels, std::uint64_t id,
                     SpanLog& spans) {
  const Input& in = workload.inputs[entry.request.input];
  const core::SesrInference& net = replicas[sub.served];
  const std::int64_t h = in.lr.shape().h(), w = in.lr.shape().w();
  double total = 0.0;
  auto leaf = [&](const char* name, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    spans.add(name, t0, t1, sub.span, id);
    total += ms(t0, t1);
  };
  if (entry.request.session != 0 && sub.delta) {
    const std::size_t per_session = workload.inputs.size() / workload.sessions;
    const std::size_t i = entry.request.input;
    const std::size_t prev = i % per_session == 0 ? i + per_session - 1 : i - 1;
    const std::int64_t scale = workload.routes[sub.served].scale;
    const Tensor prev_hr = plane_tensor(workload.inputs[prev].ref[sub.served], h * scale, w * scale);
    Tensor output(1, h * scale, w * scale, 1);
    core::DeltaPlan plan;
    leaf("video.probe", [&] { plan = core::plan_tile_delta(workload.inputs[prev].lr, in.lr, tiling, halo); });
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
      if (plan.dirty[t] == 0) continue;
      leaf("tiled.tile", [&] { core::paste_tile(output, core::upscale_tile(net, in.lr, plan.tasks[t]), plan.tasks[t], scale); });
    }
    leaf("video.splice", [&] { core::splice_clean_tiles(output, prev_hr, plan, scale); });
  } else if (h * w >= threshold_pixels) {
    for (const core::TileTask& task : core::tile_grid(h, w, tiling, halo)) {
      leaf("tiled.tile", [&] { core::upscale_tile(net, in.lr, task); });
    }
  } else {
    leaf("plan.upscale", [&] { net.upscale(in.lr); });
  }
  return total;
}

struct Component {
  const char* name;
  std::vector<double> self_ms;
};

}  // namespace

int run_traced(const RunOptions& options) {
  Workload workload;
  serve::NetworkRegistry registry;
  const bool checker_ok = prepare(options, workload, registry);
  const double s = options.seconds;

  // The same deployment as the untraced run, parsed by sesr-serve's parser.
  std::vector<std::string> args = workload.server_args();
  args.insert(args.begin(), "sesr-serve");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const sesr::cli::ServeCliConfig config = sesr::cli::parse_serve_cli(
      sesr::cli::Args(sesr::cli::serve_cli_options(), static_cast<int>(argv.size()), argv.data()));
  sesr::ThreadPool::set_global_threads(static_cast<unsigned>(config.threads));
  serve::ShardedServer server(registry, config.serve);
  serve::net::NetServerOptions net_options;
  net_options.bind_address = config.bind_address;
  net_options.io_shards = static_cast<std::size_t>(config.io_shards);
  serve::net::NetServer net(server, net_options);

  SpanLog spans;
  std::vector<PhaseResult> phases;
  std::vector<Scheduled> traced_schedule;
  serve::ShardedStats before, after;
  std::vector<double> client_codec_us;  // encode + decode per traced request, us
  std::vector<double> server_codec_us;  // decode_request + encode_response replayed, us
  {
    LoadGenerator gen(workload, net.port());
    const std::uint64_t seed = options.seed;
    auto schedule = [&](double rate, double seconds, std::uint64_t salt) {
      return open_schedule(workload, gen.source(), rate, seconds, seed + salt);
    };
    phases.push_back(gen.run_open("warmup", schedule(workload.steady_rate, kWarmupSeconds, 1), false));
    phases.push_back(gen.run_open("untraced", schedule(workload.steady_rate, 0.25 * s, 2), false));
    before = server.stats();
    traced_schedule = schedule(workload.steady_rate, 0.25 * s, 4);
    gen.set_spans(&spans);
    phases.push_back(gen.run_open("traced", traced_schedule, false));
    gen.set_spans(nullptr);
    phases.push_back(gen.run_closed("saturate", workload.saturate_concurrency, 0.15 * s));
    phases.back().open_loop = false;
    after = server.stats();
    if (workload.overload_rate > 0.0) {
      phases.push_back(gen.run_open("overload", schedule(workload.overload_rate, 0.15 * s, 3), true));
    }
    // Server-side codec: the client's payloads decoded and answered again.
    const auto& reqs = gen.request_payloads();
    const auto& resps = gen.response_payloads();
    for (std::size_t i = 0; i < std::min(reqs.size(), resps.size()); ++i) {
      const std::optional<serve::net::WireResponse> response = serve::net::decode_response(resps[i]);
      if (!response) continue;
      const std::int64_t t0 = now_ns();
      const std::optional<serve::net::WireRequest> request = serve::net::decode_request(reqs[i]);
      const std::vector<std::uint8_t> bytes = serve::net::encode_response(*response);
      const std::int64_t t1 = now_ns();
      if (request) server_codec_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    client_codec_us = gen.codec_us();
  }
  const PhaseResult& traced = phases[2];

  std::uint64_t replay_mismatched = 0;
  std::vector<Submitted> subs = replay_in_process(server, workload, traced_schedule,
                                                  traced.first_id, spans, replay_mismatched);
  const serve::net::NetStats net_stats = net.stats();
  net.shutdown();
  server.begin_drain();
  server.shutdown();

  // Leaf replays on a quiet machine.
  std::vector<core::SesrInference> replicas = route_replicas(registry);
  const std::int64_t halo = registry.entries().front().exact_halo;
  const core::TilingOptions tiling = config.serve.tiling;
  for (std::size_t k = 0; k < subs.size() && k < kReplayedRequests; ++k) {
    if (!subs[k].ok) continue;
    // Resolved before submit returned: a response-cache hit, no compute.
    subs[k].replayed = true;
    if (subs[k].done_ns <= subs[k].return_ns) continue;
    subs[k].compute_ms = replay_leaves(workload, traced_schedule[k], subs[k], replicas, tiling, halo,
                                       config.serve.tiled_threshold_pixels, traced.first_id + k,
                                       spans);
  }

  // ---- self time along the blocking path, per request, from the span tree.
  const std::vector<Span> all = spans.snapshot();
  std::map<std::uint64_t, std::map<std::string, double>> by_request;  // id -> name -> ms
  for (const Span& sp : all) by_request[sp.request][sp.name] += ms(sp.start_ns, sp.end_ns);
  Component enc{"net.encode", {}}, dec{"net.decode", {}}, submit{"serve.submit (queue, batch, dispatch)", {}},
      leaves{"compute leaves (plan/tiled/video)", {}}, rest{"unattributed (socket, front end, lag)", {}};
  std::vector<double> e2e_ms, wait_ms, small_wait_ms, submit_due_ms;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    if (subs[k].ok) submit_due_ms.push_back(ms(subs[k].due_ns, subs[k].done_ns));
    if (!subs[k].replayed) continue;
    const auto it = by_request.find(traced.first_id + k);
    if (it == by_request.end() || it->second.count("e2e") == 0) continue;
    const auto& d = it->second;
    auto get = [&d](const char* name) { const auto f = d.find(name); return f == d.end() ? 0.0 : f->second; };
    const double e2e = get("e2e"), en = get("net.encode"), de = get("net.decode");
    const double sub = ms(subs[k].call_ns, subs[k].done_ns), leaf = subs[k].compute_ms;
    e2e_ms.push_back(e2e);
    enc.self_ms.push_back(en);
    dec.self_ms.push_back(de);
    leaves.self_ms.push_back(leaf);
    // The submit and leaf spans come from the replays of the same schedule,
    // so a self time can read below zero for one request; the means add up.
    submit.self_ms.push_back(sub - leaf);
    rest.self_ms.push_back(e2e - en - de - sub);
    wait_ms.push_back(sub - leaf);
  }
  // dispatch.small_wait_ms: small frames whose in-process lifetime overlaps a
  // large frame's.
  for (std::size_t k = 0; k < subs.size(); ++k) {
    const Input& in = workload.inputs[traced_schedule[k].request.input];
    if (!subs[k].replayed || in.cls != InputClass::kSmall) continue;
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (workload.inputs[traced_schedule[j].request.input].cls != InputClass::kLarge || !subs[j].ok) continue;
      if (subs[j].call_ns < subs[k].done_ns && subs[k].call_ns < subs[j].done_ns) {
        small_wait_ms.push_back(ms(subs[k].call_ns, subs[k].done_ns) - subs[k].compute_ms);
        break;
      }
    }
  }

  // ---- standalone layer replays: plan per route and shape, nn convs, tiles,
  // video probe.
  std::vector<Metric> metrics;
  const serve::RegisteredNetwork& int8_entry = registry.entries().back();  // every workload's last route is int8
  core::SesrInference fp32_net(int8_entry.checkpoint);
  fp32_net.set_precision(core::InferencePrecision::kFp32);
  core::SesrInference int8_net(int8_entry.checkpoint);
  int8_net.set_precision(core::InferencePrecision::kInt8);
  struct PlanCase {
    core::SesrInference* net;
    const char* route;
    std::int64_t h, w;
  };
  const PlanCase plan_cases[] = {{&fp32_net, "m5-2-fp32", 64, 64},  {&fp32_net, "m5-2-fp32", 96, 128},
                                 {&int8_net, "m5-2-int8", 64, 64},  {&int8_net, "m5-2-int8", 96, 128},
                                 {&int8_net, "m5-2-int8", 96, 160}, {&int8_net, "m5-2-int8", 180, 320}};
  std::map<std::string, std::pair<double, double>> plan_rate;  // route -> (macs, ms)
  std::vector<Metric> plan_metrics;
  for (const PlanCase& c : plan_cases) {
    const Tensor frame = random_tensor(c.h, c.w, 1, 99);
    const double t = median_call_ms([&] { c.net->upscale(frame); });
    plan_metrics.push_back({"plan.frame_ms." + std::string(c.route) + "." + std::to_string(c.h) + "x" +
                                std::to_string(c.w),
                            t, "ms"});
    plan_rate[c.route].first += static_cast<double>(core::sesr_macs(int8_entry.config, c.h, c.w).macs);
    plan_rate[c.route].second += t;
  }
  struct ConvCase {
    const char* name;
    std::size_t index;
  };
  const std::size_t last = int8_net.convolutions().size() - 1;
  const ConvCase conv_cases[] = {{"conv5x5-1to16", 0}, {"conv3x3-16to16", 1}, {"conv5x5-16to4", last}};
  std::vector<Metric> nn_metrics;
  for (const ConvCase& c : conv_cases) {
    const core::CollapsedConv& conv = int8_net.convolutions()[c.index];
    const sesr::Shape& ws = conv.weight.shape();  // HWIO
    const std::int64_t kh = ws.dim(0), kw = ws.dim(1), cin = ws.dim(2), cout = ws.dim(3);
    const Tensor input = random_tensor(64, 64, cin, 7 + c.index);
    const sesr::nn::Epilogue epi = c.index == last ? sesr::nn::Epilogue{} : int8_net.activation_epilogue(c.index);
    const Tensor* bias = conv.bias ? &*conv.bias : nullptr;
    const double macs = static_cast<double>(64 * 64 * kh * kw * cin * cout);
    const double fp32_ms = median_call_ms([&] {
      const std::int64_t t0 = now_ns();
      sesr::nn::conv2d_fused(input, conv.weight, bias, epi, sesr::nn::Padding::kSame);
      spans.add("nn.conv", t0, now_ns(), -1, 0);
    });
    const double int8_ms = median_call_ms([&] {
      const std::int64_t t0 = now_ns();
      sesr::nn::conv2d_s8(input, int8_net.activation_scales()[c.index], int8_net.s8_weights()[c.index], bias,
                          epi, sesr::nn::Padding::kSame);
      spans.add("nn.conv", t0, now_ns(), -1, 0);
    });
    nn_metrics.push_back({"nn.gmacs." + std::string(c.name) + ".fp32", macs / fp32_ms / 1e6, "GMAC/s"});
    nn_metrics.push_back({"nn.gmacs." + std::string(c.name) + ".int8", macs / int8_ms / 1e6, "GMAC/s"});
    // Computed, not measured: fp32 input + weights + output bytes of one call.
    nn_metrics.push_back({"nn.bytes." + std::string(c.name),
                          4.0 * static_cast<double>(64 * 64 * cin + kh * kw * cin * cout + 64 * 64 * cout), "B"});
  }
  const Tensor large = random_tensor(180, 320, 1, 5);
  const std::vector<core::TileTask> grid = core::tile_grid(180, 320, tiling, halo);
  const double grid_ms = median_call_ms([&] {
    for (const core::TileTask& task : grid) core::upscale_tile(int8_net, large, task);
  });
  std::vector<double> probe_ms;
  if (workload.sessions > 0) {
    const std::size_t per_session = workload.inputs.size() / workload.sessions;
    for (std::size_t i = 0; i < workload.inputs.size(); ++i) {
      const std::size_t prev = i % per_session == 0 ? i + per_session - 1 : i - 1;
      const std::int64_t t0 = now_ns();
      core::plan_tile_delta(workload.inputs[prev].lr, workload.inputs[i].lr, tiling, halo);
      const std::int64_t t1 = now_ns();
      spans.add("video.probe", t0, t1, -1, 0);
      probe_ms.push_back(ms(t0, t1));
    }
  }

  // ---- counters from ShardedStats over the traced + saturate phases.
  const serve::ServerStats& a = after.total;
  const serve::ServerStats& b = before.total;
  const double executed = static_cast<double>((a.completed - a.cache_hits) - (b.completed - b.cache_hits));
  const double batches = static_cast<double>(a.batches - b.batches);
  const double tiles = static_cast<double>(a.tiles - b.tiles);
  const double probes = static_cast<double>((after.cache.hits + after.cache.misses) -
                                            (before.cache.hits + before.cache.misses));
  const double video_frames = static_cast<double>(a.video_frames - b.video_frames);
  const double reused = static_cast<double>(a.video_tiles_reused - b.video_tiles_reused);
  const double recomputed = static_cast<double>(a.video_tiles_recomputed - b.video_tiles_recomputed);
  // Admission: the overload phase where there is one, otherwise steady + saturate.
  std::uint64_t adm_sent = 0, adm_shed = 0, adm_degraded = 0;
  for (const PhaseResult& p : phases) {
    const bool counted = workload.overload_rate > 0.0 ? p.name == "overload"
                                                      : (p.name == "traced" || p.name == "saturate");
    if (!counted) continue;
    adm_sent += p.sent;
    adm_shed += p.overloaded;
    adm_degraded += p.degraded;
  }

  const double untraced_p50 = serve::percentile(phases[1].latency_ms, 50.0);
  const double traced_p50 = serve::percentile(traced.latency_ms, 50.0);
  const double inproc_p50 = serve::percentile(submit_due_ms, 50.0);
  metrics.push_back({"net.codec_us", serve::percentile(client_codec_us, 50.0) + serve::percentile(server_codec_us, 50.0), "us"});
  metrics.push_back({"net.overhead_ms", traced_p50 - inproc_p50, "ms"});
  metrics.push_back({"admission.shed_frac", share(static_cast<double>(adm_shed), static_cast<double>(adm_sent)), "frac"});
  metrics.push_back({"admission.degraded_frac", share(static_cast<double>(adm_degraded), static_cast<double>(adm_sent)), "frac"});
  metrics.push_back({"queue.wait_ms", serve::percentile(wait_ms, 50.0), "ms"});
  metrics.push_back({"queue.batch_frames", share(executed, batches), "count"});
  metrics.push_back({"dispatch.units_per_frame", share(batches + tiles, executed), "count"});
  metrics.push_back({"dispatch.small_wait_ms", serve::percentile(small_wait_ms, 50.0), "ms"});
  metrics.push_back({"cache.hit_frac", share(static_cast<double>(after.cache.hits - before.cache.hits), probes), "frac"});
  metrics.push_back({"video.delta_frac", share(static_cast<double>(a.video_delta_frames - b.video_delta_frames), video_frames), "frac"});
  metrics.push_back({"video.tile_reuse_frac", share(reused, reused + recomputed), "frac"});
  metrics.push_back({"video.probe_ms", median(probe_ms), "ms"});
  metrics.insert(metrics.end(), plan_metrics.begin(), plan_metrics.end());
  for (const auto& [route, rate] : plan_rate) {
    metrics.push_back({"plan.gmacs." + route, rate.first / rate.second / 1e6, "GMAC/s"});
  }
  metrics.push_back({"tiled.tile_ms", grid_ms / static_cast<double>(grid.size()), "ms"});
  metrics.push_back({"tiled.halo_overhead", core::tiling_compute_overhead(180, 320, tiling, halo), "ratio"});
  metrics.insert(metrics.end(), nn_metrics.begin(), nn_metrics.end());
  metrics.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});

  // ---- report
  std::uint64_t attempted = 0, failed = 0, mismatched = replay_mismatched;
  for (const PhaseResult& p : phases) {
    print_phase(p, workload.limit_ms);
    attempted += p.sent;
    failed += p.failed;
    mismatched += p.mismatched;
  }
  std::size_t replay_failed = 0;
  for (const Submitted& sub : subs) replay_failed += sub.ok ? 0 : 1;
  attempted += subs.size();
  failed += replay_failed;
  std::printf("in-process replay: %zu submitted, %zu failed, %llu mismatched; leaf calls replayed for %zu\n",
              subs.size(), replay_failed, static_cast<unsigned long long>(replay_mismatched),
              leaves.self_ms.size());
  std::printf("e2e p50: traced %.3f ms, untraced %.3f ms -> tracing overhead %.3f ms; "
              "in-process (no sockets) p50 %.3f ms\n",
              traced_p50, untraced_p50, traced_p50 - untraced_p50, inproc_p50);
  std::printf("net counters: %llu requests, %llu responses, %llu malformed; server: %llu completed, "
              "%llu batches, %llu tiles, %llu cache hits\n",
              static_cast<unsigned long long>(net_stats.requests),
              static_cast<unsigned long long>(net_stats.responses),
              static_cast<unsigned long long>(net_stats.malformed),
              static_cast<unsigned long long>(a.completed), static_cast<unsigned long long>(a.batches),
              static_cast<unsigned long long>(a.tiles), static_cast<unsigned long long>(a.cache_hits));
  const double e2e_mean = e2e_ms.empty() ? 0.0 : std::accumulate(e2e_ms.begin(), e2e_ms.end(), 0.0) / static_cast<double>(e2e_ms.size());
  std::printf("blocking path, %zu requests (self time; mean shares add up to the e2e mean %.3f ms):\n",
              e2e_ms.size(), e2e_mean);
  for (const Component* c : {&enc, &dec, &submit, &leaves, &rest}) {
    const double mean = c->self_ms.empty() ? 0.0 : std::accumulate(c->self_ms.begin(), c->self_ms.end(), 0.0) / static_cast<double>(c->self_ms.size());
    std::printf("  %-40s p50 %8.3f ms  mean %8.3f ms  %5.1f%%\n", c->name, serve::percentile(c->self_ms, 50.0), mean,
                e2e_mean > 0.0 ? 100.0 * mean / e2e_mean : 0.0);
  }
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (const Span& sp : all) {
    by_name[sp.name].first += 1;
    by_name[sp.name].second += ms(sp.start_ns, sp.end_ns);
  }
  std::printf("spans:");
  for (const auto& [name, v] : by_name) std::printf("  %s x%zu (%.1f ms)", name.c_str(), v.first, v.second);
  std::printf("\n");

  const std::filesystem::path dir = std::filesystem::path(".bench_build") / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / (workload.name + "-seed" + std::to_string(options.seed) + ".jsonl");
  std::ofstream trace(file);
  for (const Span& sp : all) {
    trace << "{\"name\": \"" << sp.name << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
          << ", \"parent\": " << sp.parent << ", \"request\": " << sp.request << "}\n";
  }
  std::printf("spans written to %s\n", file.string().c_str());
  for (const Metric& m : metrics) std::printf("metric %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_result(checker_ok && mismatched == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace servebench
