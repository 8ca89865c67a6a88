// In-memory span log of the traced run. Each span records its name, start,
// end, parent span and the id of the request it belongs to; spans are kept
// in memory and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the log; -1 = root
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  // Appends a span and returns its index (end may be filled in later).
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::uint64_t request) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t index, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace servebench
