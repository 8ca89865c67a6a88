#include "loadgen.hpp"

#include "server_process.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>

namespace servebench {

namespace net = sesr::serve::net;

namespace {

constexpr std::size_t kKeptPayloads = 64;     // traced run: payloads kept for the codec replay
constexpr std::int64_t kDrainNs = 15'000'000'000;  // wait for stragglers after the last send
constexpr std::uint64_t kSessionIdBase = 1000;

// Joins a phase's receiver on every exit path. On the normal path the caller
// has already joined it; when a send throws, the receiver is told to stop now.
class ReceiverGuard {
 public:
  ReceiverGuard(std::thread& thread, std::atomic<bool>& sending_done,
                std::atomic<std::int64_t>& drain_deadline_ns)
      : thread_(thread), sending_done_(sending_done), drain_deadline_ns_(drain_deadline_ns) {}
  ~ReceiverGuard() {
    if (!thread_.joinable()) return;
    drain_deadline_ns_.store(1);  // already past: the receive loop exits
    sending_done_.store(true);
    thread_.join();
  }
  ReceiverGuard(const ReceiverGuard&) = delete;
  ReceiverGuard& operator=(const ReceiverGuard&) = delete;

 private:
  std::thread& thread_;
  std::atomic<bool>& sending_done_;
  std::atomic<std::int64_t>& drain_deadline_ns_;
};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

}  // namespace

std::vector<Scheduled> open_schedule(const Workload& workload, TrafficSource& source,
                                     double rate, double seconds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Scheduled> schedule;
  if (workload.sessions == 0) {
    // Exactly rate * seconds Poisson arrivals, so every run of a workload
    // rests its percentiles on the same sample count.
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    std::exponential_distribution<double> gap(rate);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) schedule.push_back({t += gap(rng), source.next()});
    return schedule;
  }
  // Video: each session sends on a jittered frame clock.
  const double period = static_cast<double>(workload.sessions) / rate;
  struct Due {
    double t;
    std::size_t session;
  };
  std::vector<Due> dues;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t s = 0; s < workload.sessions; ++s) {
    // Staggered starts: session s begins at a seeded point of its own 1/n
    // share of the period. Each frame then leaves up to 35% of a period early
    // or late (network and capture jitter), so frames of different sessions
    // collide at random but a session's frames never overtake each other.
    const double phase =
        period * (static_cast<double>(s) + unit(rng)) / static_cast<double>(workload.sessions);
    for (double t = phase; t < seconds; t += period) {
      dues.push_back({std::max(0.0, t + period * 0.7 * (unit(rng) - 0.5)), s});
    }
  }
  std::sort(dues.begin(), dues.end(), [](const Due& a, const Due& b) {
    return a.t != b.t ? a.t < b.t : a.session < b.session;
  });
  for (const Due& d : dues) schedule.push_back({d.t, source.next_for_session(d.session)});
  return schedule;
}

struct LoadGenerator::Record {
  Request request;
  std::size_t slot = 0;  // closed loop: the client slot that issued it
  std::int64_t due_ns = 0;
  std::int64_t e2e_span = -1;
  double encode_us = 0.0;
  bool answered = false;  // receiver thread only
};

struct LoadGenerator::Phase {
  PhaseResult result;
  bool open = true;
  bool overload = false;
  std::uint64_t base = 0;  // wire id of record i is base + i + 1
  std::vector<Record> records;
  std::atomic<std::size_t> issued{0};
  std::size_t answered = 0;
  std::atomic<bool> sending_done{false};
  std::atomic<std::int64_t> drain_deadline_ns{0};
  std::int64_t window_end_ns = 0;  // closed loop
  std::atomic<bool> dead[2] = {false, false};  // written by the receiver, read by the sender
};

LoadGenerator::LoadGenerator(const Workload& workload, std::uint16_t port, SpanLog* spans)
    : workload_(workload), source_(workload), spans_(spans) {
  for (const sesr::serve::RouteKey& r : workload.routes) {
    route_names_.push_back(sesr::serve::route_string(r));
  }
  for (net::Fd& fd : conns_) {
    fd = net::connect_tcp("127.0.0.1", port);
    net::set_nodelay(fd);
  }
}

LoadGenerator::~LoadGenerator() = default;

// Closed-loop client `slot` is one video session, or a caller of one route
// (slot % routes) when the workload has several.
Request LoadGenerator::next_for_slot(std::size_t slot) {
  if (workload_.sessions != 0) return source_.next_for_session(slot);
  const std::size_t routes = workload_.routes.size();
  return source_.next(routes > 1 ? static_cast<int>(slot % routes) : -1);
}

void LoadGenerator::send(Phase& phase, std::size_t index) {
  Record& rec = phase.records[index];
  const Input& in = workload_.inputs[rec.request.input];
  const std::size_t conn =
      rec.request.session != 0 ? (rec.request.session - 1) % 2 : (phase.open ? index : rec.slot) % 2;
  net::WireRequest wire;
  wire.id = phase.base + index + 1;
  wire.route = route_names_[rec.request.route];
  wire.h = in.lr.shape().h();
  wire.w = in.lr.shape().w();
  if (rec.request.session != 0) {
    wire.video = true;
    wire.session_id = kSessionIdBase + rec.request.session;
    wire.frame_seq = rec.request.seq;
  }
  const std::int64_t t0 = now_ns();
  if (!phase.open) rec.due_ns = t0;
  wire.pixels = net::frame_to_pixels(in.lr);
  const std::vector<std::uint8_t> bytes = net::encode_request(wire);
  if (spans_ != nullptr) {
    const std::int64_t t1 = now_ns();
    rec.encode_us = static_cast<double>(t1 - t0) / 1e3;
    rec.e2e_span = spans_->add("e2e", rec.due_ns, 0, -1, wire.id);
    spans_->add("net.encode", t0, t1, rec.e2e_span, wire.id);
    if (req_payloads_.size() < kKeptPayloads) req_payloads_.emplace_back(bytes.begin() + 8, bytes.end());
  }
  phase.issued.store(index + 1, std::memory_order_release);
  ++phase.result.sent;
  if (phase.dead[conn]) return;  // counted as unanswered at the end of the phase
  try {
    net::send_all(conns_[conn], bytes.data(), bytes.size());
  } catch (const net::SocketError&) {
    phase.dead[conn] = true;
  }
}

void LoadGenerator::handle(Phase& phase, const std::vector<std::uint8_t>& payload,
                           std::size_t conn) {
  const std::int64_t t0 = now_ns();
  const std::optional<net::WireResponse> response = net::decode_response(payload);
  const std::int64_t t1 = now_ns();
  PhaseResult& out = phase.result;
  const std::size_t issued = phase.issued.load(std::memory_order_acquire);
  if (!response || response->id <= phase.base || response->id - phase.base > issued ||
      phase.records[response->id - phase.base - 1].answered) {
    ++out.failed;
    if (out.first_failure.empty()) out.first_failure = "undecodable, foreign or duplicate answer";
    phase.dead[conn] = true;
    return;
  }
  const std::size_t index = response->id - phase.base - 1;
  Record& rec = phase.records[index];
  rec.answered = true;
  ++phase.answered;
  const double latency_ms = static_cast<double>(t1 - rec.due_ns) / 1e6;
  if (spans_ != nullptr) {
    spans_->add("net.decode", t0, t1, rec.e2e_span, response->id);
    spans_->close(rec.e2e_span, t1);
    codec_us_.push_back(rec.encode_us + static_cast<double>(t1 - t0) / 1e3);
    if (resp_payloads_.size() < kKeptPayloads) resp_payloads_.push_back(payload);
  }
  const bool in_window = phase.open || t1 <= phase.window_end_ns;
  if (response->status == net::Status::kOk) {
    const Input& in = workload_.inputs[rec.request.input];
    const auto served = std::find(route_names_.begin(), route_names_.end(), response->route);
    const bool exact =
        served != route_names_.end() && response->h == in.lr.shape().h() * workload_.routes[0].scale &&
        planes_equal(response->pixels, in.ref[static_cast<std::size_t>(served - route_names_.begin())]);
    if (!exact) {
      ++out.mismatched;
      ++out.failed;
      if (out.first_failure.empty()) out.first_failure = "wrong output bits from " + response->route;
    } else {
      ++out.ok;
      const bool within = latency_ms <= workload_.limit_ms;
      out.ok_within_limit += within ? 1 : 0;
      if (response->flags & net::kFlagDegraded) ++out.degraded;
      if (response->flags & net::kFlagDeltaReuse) ++out.delta;
      out.latency_ms.push_back(latency_ms);
      out.latency_mode.push_back(latency_mode(workload_, rec.request));
      if (!phase.open && in_window) {
        ++out.window_ok;
        out.window_ok_within_limit += within ? 1 : 0;
      }
    }
  } else {
    if (response->status == net::Status::kOverloaded) ++out.overloaded;
    if (response->status != net::Status::kOverloaded || !phase.overload) {
      ++out.failed;
      if (out.first_failure.empty()) {
        out.first_failure = "status " + std::to_string(static_cast<int>(response->status)) + ": " +
                            response->message;
      }
    }
  }
  // Closed loop: the slot's next request goes out as soon as this one is back.
  // A slot whose request failed retires rather than retrying in a tight loop.
  const bool slot_ok = response->status == net::Status::kOk;
  if (!phase.open && slot_ok && t1 < phase.window_end_ns && issued < phase.records.size()) {
    Record& next = phase.records[issued];
    next.slot = rec.slot;
    next.request = next_for_slot(rec.slot);
    send(phase, issued);
  }
}

void LoadGenerator::receive_loop(Phase& phase) {
  std::vector<std::uint8_t> buffer(1 << 20);
  while (true) {
    const std::int64_t now = now_ns();
    const bool sending_done = phase.sending_done.load(std::memory_order_acquire);
    const std::size_t issued = phase.issued.load(std::memory_order_acquire);
    if (phase.open && sending_done && phase.answered == issued) break;
    if (!phase.open && now >= phase.window_end_ns && phase.answered == issued) break;
    const std::int64_t deadline = phase.drain_deadline_ns.load(std::memory_order_acquire);
    if (deadline != 0 && now > deadline) break;
    if (phase.dead[0] && phase.dead[1]) break;
    pollfd fds[2] = {{conns_[0].get(), POLLIN, 0}, {conns_[1].get(), POLLIN, 0}};
    if (poll(fds, 2, 5) <= 0) continue;
    for (std::size_t c = 0; c < 2; ++c) {
      if (phase.dead[c] || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = recv(conns_[c].get(), buffer.data(), buffer.size(), 0);
      if (n <= 0) {
        phase.dead[c] = true;
        continue;
      }
      readers_[c].feed(buffer.data(), static_cast<std::size_t>(n));
      while (std::optional<std::vector<std::uint8_t>> payload = readers_[c].next()) {
        handle(phase, *payload, c);
      }
      if (readers_[c].poisoned()) phase.dead[c] = true;
    }
  }
}

void LoadGenerator::count_unanswered(Phase& phase) {
  const std::size_t missing = phase.issued.load() - phase.answered;
  phase.result.failed += missing;
  if (missing > 0 && phase.result.first_failure.empty()) {
    phase.result.first_failure = std::to_string(missing) + " requests never answered";
  }
}

PhaseResult LoadGenerator::run_open(const std::string& name, const std::vector<Scheduled>& schedule,
                                    bool overload_phase) {
  Phase phase;
  phase.result.name = name;
  phase.open = true;
  phase.overload = overload_phase;
  phase.base = next_base_;
  next_base_ += schedule.size() + 1;
  phase.records.resize(schedule.size());
  const std::int64_t start = now_ns() + 2'000'000;
  phase.result.first_id = phase.base + 1;
  phase.result.seconds = schedule.empty() ? 0.0 : schedule.back().due_s;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    phase.records[i].request = schedule[i].request;
    phase.records[i].due_ns = start + static_cast<std::int64_t>(schedule[i].due_s * 1e9);
  }
  const double steal0 = host_steal_seconds();
  std::thread receiver([&] { receive_loop(phase); });
  const ReceiverGuard guard(receiver, phase.sending_done, phase.drain_deadline_ns);
  phase.result.lag_ms.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    sleep_until_ns(phase.records[i].due_ns);
    phase.result.lag_ms.push_back(static_cast<double>(now_ns() - phase.records[i].due_ns) / 1e6);
    send(phase, i);
  }
  phase.drain_deadline_ns.store(now_ns() + kDrainNs, std::memory_order_release);
  phase.sending_done.store(true, std::memory_order_release);
  receiver.join();
  phase.result.steal_s = host_steal_seconds() - steal0;
  count_unanswered(phase);
  return std::move(phase.result);
}

PhaseResult LoadGenerator::run_closed(const std::string& name, int concurrency, double seconds,
                                      const std::function<void()>& on_window) {
  Phase phase;
  phase.result.name = name;
  phase.result.seconds = seconds;
  phase.open = false;
  // Enough records for any rate this machine reaches; the loop stops issuing
  // when they run out.
  const std::size_t capacity = static_cast<std::size_t>(seconds * 4000.0) + 64;
  phase.base = next_base_;
  next_base_ += capacity + 1;
  phase.records.resize(capacity);
  if (on_window) on_window();
  const double steal0 = host_steal_seconds();
  const std::int64_t start = now_ns();
  phase.result.first_id = phase.base + 1;
  phase.window_end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  phase.drain_deadline_ns.store(phase.window_end_ns + kDrainNs);
  for (int s = 0; s < concurrency; ++s) {
    Record& rec = phase.records[static_cast<std::size_t>(s)];
    rec.slot = static_cast<std::size_t>(s);
    rec.request = next_for_slot(rec.slot);
    send(phase, static_cast<std::size_t>(s));
  }
  std::thread receiver([&] { receive_loop(phase); });
  const ReceiverGuard guard(receiver, phase.sending_done, phase.drain_deadline_ns);
  sleep_until_ns(phase.window_end_ns);
  if (on_window) on_window();
  receiver.join();
  phase.result.steal_s = host_steal_seconds() - steal0;
  count_unanswered(phase);
  return std::move(phase.result);
}

}  // namespace servebench
