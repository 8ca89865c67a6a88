#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "core/video_session.hpp"
#include "data/video.hpp"
#include "tensor/rng.hpp"

namespace servebench {

namespace {

using sesr::serve::RouteKey;

constexpr std::size_t kHotFrames = 16;     // small_frames: repeated frames
constexpr std::size_t kColdFrames = 160;   // small_frames: cycled pool, > cache capacity
constexpr std::uint8_t kSlotHot = 100;   // block slots of TrafficSource::next
constexpr std::uint8_t kSlotLarge = 101;
constexpr std::size_t kMixedSmall = 112;   // mixed_sizes: 64x64 pool
constexpr std::size_t kMixedLarge = 16;    // mixed_sizes: 180x320 pool
constexpr std::int64_t kSessionFrames = 32;  // video: frames per session before it wraps

RouteKey route(const std::string& spec) { return sesr::serve::parse_route(spec); }

Tensor random_frame(sesr::Rng& rng, std::int64_t h, std::int64_t w) {
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

// Mirrors named_config in tools/sesr-serve.cpp.
sesr::core::SesrConfig named_config(const std::string& name, std::int64_t scale) {
  if (name == "m3") return sesr::core::sesr_m3(scale);
  if (name == "m5") return sesr::core::sesr_m5(scale);
  if (name == "m7") return sesr::core::sesr_m7(scale);
  if (name == "m11") return sesr::core::sesr_m11(scale);
  return sesr::core::sesr_xl(scale);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"small_frames", "mixed_sizes", "video_sessions"};
  return names;
}

std::vector<std::string> Workload::server_args() const {
  std::string networks;
  for (const RouteKey& r : routes) {
    if (!networks.empty()) networks += ",";
    networks += sesr::serve::route_string(r);
  }
  char limit[32];
  std::snprintf(limit, sizeof(limit), "%g", limit_ms);
  return {"--listen",        "0",
          "--networks",      networks,
          "--workers",       std::to_string(workers),
          "--mode",          "auto",
          "--slo-p99-ms",    limit,
          "--cache-entries", std::to_string(cache_entries),
          "--seed",          std::to_string(seed),
          "--io-shards",     "1",
          "--threads",       "1"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  sesr::Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  if (name == "small_frames") {
    w.routes = {route("m5:2:fp32"), route("m5:2:int8")};
    w.workers = 1;
    w.cache_entries = 128;
    w.limit_ms = 400.0;
    w.steady_rate = 52.0;
    w.saturate_concurrency = 4;  // two clients per route
    w.overload_rate = 330.0;
    for (std::size_t i = 0; i < kHotFrames + kColdFrames; ++i) {
      Input in;
      in.lr = i % 2 == 0 ? random_frame(rng, 64, 64) : random_frame(rng, 96, 128);
      in.cls = i < kHotFrames ? InputClass::kHot : InputClass::kSmall;
      w.inputs.push_back(std::move(in));
    }
  } else if (name == "mixed_sizes") {
    w.routes = {route("m5:2:int8")};
    w.workers = 2;
    w.limit_ms = 300.0;
    w.steady_rate = 90.0;
    w.saturate_concurrency = 4;
    for (std::size_t i = 0; i < kMixedSmall + kMixedLarge; ++i) {
      Input in;
      const bool large = i >= kMixedSmall;
      in.lr = large ? random_frame(rng, 180, 320) : random_frame(rng, 64, 64);
      in.cls = large ? InputClass::kLarge : InputClass::kSmall;
      w.inputs.push_back(std::move(in));
    }
  } else if (name == "video_sessions") {
    w.routes = {route("m5:2:int8")};
    w.workers = 2;
    w.limit_ms = 400.0;
    w.sessions = 8;
    w.steady_rate = 56.0;  // all sessions together; each runs at steady_rate / sessions
    w.saturate_concurrency = 8;
    // 6 pan, 1 sparkle, 1 cut: ~3/4 of frames are fully dirty.
    const sesr::data::VideoPattern patterns[8] = {
        sesr::data::VideoPattern::kPan,     sesr::data::VideoPattern::kPan,
        sesr::data::VideoPattern::kPan,     sesr::data::VideoPattern::kPan,
        sesr::data::VideoPattern::kPan,     sesr::data::VideoPattern::kPan,
        sesr::data::VideoPattern::kSparkle, sesr::data::VideoPattern::kCut};
    for (std::size_t s = 0; s < w.sessions; ++s) {
      sesr::data::VideoSequenceOptions opts;
      opts.pattern = patterns[s];
      opts.frames = kSessionFrames;
      opts.h = 96;
      opts.w = 160;
      for (Tensor& frame : sesr::data::synthesize_video(opts, seed * 7919 + s)) {
        Input in;
        in.lr = std::move(frame);
        in.cls = InputClass::kVideo;
        w.inputs.push_back(std::move(in));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// Mirrors build_registry in tools/sesr-serve.cpp for the precisions the
// workloads deploy: weights drawn from one Rng(seed) in route order, and the
// same synthetic int8 calibration set.
sesr::serve::NetworkRegistry build_registry(const Workload& workload) {
  sesr::Rng rng(workload.seed);
  sesr::serve::NetworkRegistry registry;
  for (const RouteKey& r : workload.routes) {
    sesr::core::SesrNetwork network(named_config(r.network, r.scale), rng);
    sesr::core::SesrInference collapsed(network);
    if (r.precision == sesr::core::InferencePrecision::kHybrid) {
      throw std::invalid_argument("servebench: hybrid routes are not mirrored");
    }
    if (r.precision == sesr::core::InferencePrecision::kInt8) {
      sesr::Rng calib_rng(workload.seed ^ 0xC0FFEEULL);
      std::vector<Tensor> calib;
      for (int i = 0; i < 4; ++i) calib.push_back(random_frame(calib_rng, 48, 48));
      collapsed.calibrate_int8(calib);
    }
    registry.add(r, collapsed);
  }
  return registry;
}

std::vector<sesr::core::SesrInference> route_replicas(
    const sesr::serve::NetworkRegistry& registry) {
  std::vector<sesr::core::SesrInference> replicas;
  for (const sesr::serve::RegisteredNetwork& entry : registry.entries()) {
    replicas.emplace_back(entry.checkpoint);
    replicas.back().set_precision(entry.key.precision);
  }
  return replicas;
}

void compute_references(Workload& workload, const sesr::serve::NetworkRegistry& registry,
                        unsigned threads) {
  threads = std::max(1U, threads);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        std::vector<sesr::core::SesrInference> replicas = route_replicas(registry);
        for (std::size_t i = t; i < workload.inputs.size(); i += threads) {
          Input& in = workload.inputs[i];
          in.ref.resize(replicas.size());
          for (std::size_t r = 0; r < replicas.size(); ++r) {
            const Tensor hr = replicas[r].upscale_direct(in.lr);
            in.ref[r].assign(hr.raw(), hr.raw() + hr.numel());
          }
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  if (workload.sessions == 0) return;
  // A video frame is fully dirty when every tile of the serving grid changed
  // against its predecessor in the session.
  const auto& entry = registry.entries().front();
  const sesr::core::TilingOptions tiling;  // sesr-serve's default --tile 64
  const std::size_t per_session = workload.inputs.size() / workload.sessions;
  for (std::size_t i = 0; i < workload.inputs.size(); ++i) {
    const std::size_t prev = i % per_session == 0 ? i + per_session - 1 : i - 1;
    const sesr::core::DeltaPlan plan = sesr::core::plan_tile_delta(
        workload.inputs[prev].lr, workload.inputs[i].lr, tiling, entry.exact_halo);
    workload.inputs[i].dirty = plan.dirty_count == plan.tasks.size();
  }
}

TrafficSource::TrafficSource(const Workload& workload)
    : workload_(workload), rng_(workload.seed ^ 0x9E3779B97F4A7C15ULL),
      next_seq_(workload.sessions, 0) {}

// Plain traffic is drawn in blocks with exact class shares and a seeded order
// inside each block, so runs differ in arrival times and pixels but not in
// their request mix.
Request TrafficSource::next(int route) {
  const bool small = workload_.name == "small_frames";
  std::vector<std::uint8_t>& block = route < 0 || !small ? block_ : route_block_[route];
  if (block.empty()) {
    if (!small) {  // mixed_sizes: one large frame per block of 8
      block = {kSlotLarge, 0, 0, 0, 0, 0, 0, 0};
    } else if (route < 0) {
      // 2 hot + 2 of each (route, shape): 20% repeats, 50/50 routes and shapes.
      block = {kSlotHot, kSlotHot, 0, 0, 1, 1, 2, 2, 3, 3};
    } else {  // one route's client: 1 hot + 2 of each shape
      const auto base = static_cast<std::uint8_t>(2 * route);
      block = {kSlotHot, base, base, static_cast<std::uint8_t>(base + 1),
               static_cast<std::uint8_t>(base + 1)};
    }
    std::shuffle(block.begin(), block.end(), rng_);
  }
  const std::uint8_t slot = block.back();
  block.pop_back();
  Request r;
  if (slot == kSlotHot) {
    // Hot frame h pins route (h / 2) % 2, so every (route, shape) has hot frames.
    std::uint64_t hot = 0;
    if (route < 0) {
      hot = hot_cursor_++ % kHotFrames;
    } else {
      const std::uint64_t i = route_hot_cursor_[route]++ % (kHotFrames / 2);
      hot = (i / 2) * 4 + 2 * static_cast<std::uint64_t>(route) + i % 2;
    }
    r.input = static_cast<std::uint32_t>(hot);
    r.route = static_cast<std::uint8_t>((hot / 2) % 2);
  } else if (slot == kSlotLarge) {
    r.input = static_cast<std::uint32_t>(kMixedSmall + hot_cursor_++ % kMixedLarge);
  } else if (small) {
    // slot = 2 * route + shape; cold frames alternate shapes in the pool.
    const std::uint64_t shape = slot % 2;
    const std::uint64_t index = cold_cursor_[shape]++ % (kColdFrames / 2);
    r.input = static_cast<std::uint32_t>(kHotFrames + 2 * index + shape);
    r.route = static_cast<std::uint8_t>(slot / 2);
  } else {
    r.input = static_cast<std::uint32_t>(cold_cursor_[0]++ % kMixedSmall);
  }
  return r;
}

Request TrafficSource::next_for_session(std::size_t session) {
  Request r;
  const std::uint32_t seq = ++next_seq_.at(session);
  r.session = static_cast<std::uint32_t>(session + 1);
  r.seq = seq;
  r.input = static_cast<std::uint32_t>(session * kSessionFrames + (seq - 1) % kSessionFrames);
  return r;
}

std::vector<std::string> latency_mode_names(const Workload& workload) {
  if (workload.name == "small_frames") {
    return {"hot (cache)", "fp32 64x64", "fp32 96x128", "int8 64x64", "int8 96x128"};
  }
  if (workload.name == "mixed_sizes") return {"64x64 full-frame", "180x320 tiled"};
  return {"partly clean", "fully dirty"};
}

std::uint8_t latency_mode(const Workload& workload, const Request& request) {
  const Input& in = workload.inputs[request.input];
  switch (in.cls) {
    case InputClass::kHot:
      return 0;
    case InputClass::kSmall:
      return workload.name == "small_frames"
                 ? static_cast<std::uint8_t>(1 + 2 * request.route + (in.lr.shape().h() == 64 ? 0 : 1))
                 : 0;
    case InputClass::kLarge:
      return 1;
    case InputClass::kVideo:
      return in.dirty ? 1 : 0;
  }
  return 0;
}

bool planes_equal(const std::vector<float>& served, const std::vector<float>& reference) {
  return served.size() == reference.size() &&
         std::memcmp(served.data(), reference.data(), served.size() * sizeof(float)) == 0;
}

}  // namespace servebench
