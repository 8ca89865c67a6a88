// Load generator over the binary wire protocol: two pipelined connections,
// one sending thread and one receiving thread. Open-loop phases send on a
// precomputed schedule and time every request from its due time; closed-loop
// phases keep a fixed number of requests in flight. Every answer is checked
// bit-exactly against the reference of the route that served it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/net/socket.hpp"
#include "serve/net/wire.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace servebench {

// One entry of an open-loop schedule.
struct Scheduled {
  double due_s = 0.0;  // offset from the phase start
  Request request;
};

// Deterministic open-loop schedule of `seconds` at `rate` requests/s: Poisson
// arrivals for plain traffic, a fixed per-session frame period (seeded phase)
// for video sessions. Draws its requests from `source` in due order.
std::vector<Scheduled> open_schedule(const Workload& workload, TrafficSource& source,
                                     double rate, double seconds, std::uint64_t seed);

struct PhaseResult {
  std::string name;
  bool open_loop = true;
  double seconds = 0.0;  // scheduled length (open) or measurement window (closed)
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;      // wrong bits, transport error, no answer, non-OK status
  std::uint64_t overloaded = 0;  // kOverloaded answers (a failure outside the overload phase)
  std::uint64_t mismatched = 0;  // OK answers whose bits differ from the reference
  std::uint64_t degraded = 0;    // OK answers flagged kFlagDegraded
  std::uint64_t delta = 0;       // OK answers flagged kFlagDeltaReuse
  std::uint64_t ok_within_limit = 0;
  std::uint64_t window_ok = 0;            // closed loop: OK answers inside the window
  std::uint64_t window_ok_within_limit = 0;
  std::vector<double> latency_ms;         // per OK answer: due (or send) -> decoded
  std::vector<std::uint8_t> latency_mode; // per OK answer: latency_mode() of its request
  std::vector<double> lag_ms;             // open loop: how late each send started
  std::uint64_t first_id = 0;             // wire id of the phase's first request
  double steal_s = 0.0;                   // host steal time during the phase (all CPUs)
  std::string first_failure;              // what the first failed operation was
};

class LoadGenerator {
 public:
  // Connects both connections to 127.0.0.1:port. With `spans`, every request
  // records e2e, net.encode and net.decode spans.
  LoadGenerator(const Workload& workload, std::uint16_t port, SpanLog* spans = nullptr);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  TrafficSource& source() { return source_; }
  // Turns span recording on (a log) or off (nullptr) for the next phases.
  void set_spans(SpanLog* spans) { spans_ = spans; }

  PhaseResult run_open(const std::string& name, const std::vector<Scheduled>& schedule,
                       bool overload_phase);
  // Closed loop for `seconds`; `on_window` runs on the calling thread at the
  // window's start and end (the CPU-time sampler).
  PhaseResult run_closed(const std::string& name, int concurrency, double seconds,
                         const std::function<void()>& on_window = {});

  // Client-side codec time of the traced run (encode + decode), per request.
  const std::vector<double>& codec_us() const { return codec_us_; }
  // The encoded request and response payloads of the last traced requests
  // (replayed through decode_request / encode_response).
  const std::vector<std::vector<std::uint8_t>>& request_payloads() const { return req_payloads_; }
  const std::vector<std::vector<std::uint8_t>>& response_payloads() const { return resp_payloads_; }

 private:
  struct Record;
  struct Phase;
  Request next_for_slot(std::size_t slot);
  void send(Phase& phase, std::size_t index);
  void receive_loop(Phase& phase);
  void count_unanswered(Phase& phase);
  void handle(Phase& phase, const std::vector<std::uint8_t>& payload, std::size_t conn);

  const Workload& workload_;
  TrafficSource source_;
  SpanLog* spans_;
  std::vector<std::string> route_names_;
  sesr::serve::net::Fd conns_[2];
  sesr::serve::net::FrameReader readers_[2];
  std::uint64_t next_base_ = 0;
  std::vector<double> codec_us_;
  std::vector<std::vector<std::uint8_t>> req_payloads_;
  std::vector<std::vector<std::uint8_t>> resp_payloads_;
};

}  // namespace servebench
