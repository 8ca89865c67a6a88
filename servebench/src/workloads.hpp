// Workload definitions of the serving benchmark: the sesr-serve deployment
// each workload runs against, its seeded inputs with bit-exact reference
// outputs, and the deterministic request stream the generator replays.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/sesr_inference.hpp"
#include "serve/registry.hpp"
#include "tensor/tensor.hpp"

namespace servebench {

using sesr::Tensor;

// What a request's input is, for the property report and the latency-mode
// boundaries.
enum class InputClass : std::uint8_t {
  kHot,    // one of the repeated frames (cache candidates)
  kSmall,  // a full-frame path frame
  kLarge,  // above the tiled threshold: kAuto fans it out into tiles
  kVideo,  // a video-session frame
};

struct Input {
  Tensor lr;                           // (1, H, W, 1)
  std::vector<std::vector<float>> ref;  // per deployment route: bit-exact HR plane
  InputClass cls = InputClass::kSmall;
  bool dirty = false;                   // video: differs from its predecessor everywhere
};

// One request of the generated stream.
struct Request {
  std::uint32_t input = 0;
  std::uint8_t route = 0;      // index into Workload::routes
  std::uint32_t session = 0;   // video: 1-based session index; 0 = plain request
  std::uint32_t seq = 0;       // video: frame sequence number (1-based)
};

struct Workload {
  std::string name;
  std::vector<sesr::serve::RouteKey> routes;
  int workers = 1;
  std::size_t cache_entries = 0;
  double limit_ms = 0.0;           // latency limit of slo_attain_frac / goodput_fps
  double steady_rate = 0.0;        // open-loop requests per second (steady phase)
  int saturate_concurrency = 0;    // closed-loop requests in flight (saturate phase)
  double overload_rate = 0.0;      // open-loop rate of the overload phase; 0 = no phase
  std::size_t sessions = 0;        // video sessions (0 = plain traffic)
  std::uint64_t seed = 1;
  std::vector<Input> inputs;

  // sesr-serve arguments of this deployment (without the program name).
  std::vector<std::string> server_args() const;
};

// Names of the defined workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Builds the named workload's deployment and inputs from the seed; the
// reference outputs stay empty until compute_references runs.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The route networks exactly as sesr-serve builds them from --seed (weights,
// int8 calibration set), one replica per route, pinned to its precision.
sesr::serve::NetworkRegistry build_registry(const Workload& workload);
std::vector<sesr::core::SesrInference> route_replicas(const sesr::serve::NetworkRegistry& registry);

// Fills every Input::ref with SesrInference::upscale_direct of each route
// (threads > 1 splits the inputs across that many threads; each thread owns
// its replicas, and every output is computed single-threaded).
void compute_references(Workload& workload, const sesr::serve::NetworkRegistry& registry,
                        unsigned threads);

// Seeded request stream of a workload. Open-loop schedules draw it in due
// order, so they are a function of the seed alone; closed-loop clients draw it
// in completion order. Video workloads draw per session (next_for_session),
// plain ones from the mix (next).
class TrafficSource {
 public:
  explicit TrafficSource(const Workload& workload);
  // The next request of the mix; with route >= 0, the next request of a
  // client that only calls that route (same shares within the route).
  Request next(int route = -1);
  Request next_for_session(std::size_t session);  // 0-based session index

 private:
  const Workload& workload_;
  std::mt19937_64 rng_;
  std::vector<std::uint8_t> block_;      // request classes left in the current block
  std::vector<std::uint8_t> route_block_[2];  // the same, per single-route client
  std::uint64_t route_hot_cursor_[2] = {0, 0};
  std::uint64_t hot_cursor_ = 0;         // repeated (small) or large frames drawn so far
  std::uint64_t cold_cursor_[2] = {0, 0};  // per shape: pool frames drawn so far
  std::vector<std::uint32_t> next_seq_;  // per session
};

// Latency modes: request classes whose service times differ. The report
// places p50 and p99 against the cumulative shares of these modes.
std::vector<std::string> latency_mode_names(const Workload& workload);
std::uint8_t latency_mode(const Workload& workload, const Request& request);

// Bit-exact comparison of a served plane against a reference.
bool planes_equal(const std::vector<float>& served, const std::vector<float>& reference);

}  // namespace servebench
