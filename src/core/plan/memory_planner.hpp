// Liveness-based static activation memory planner.
//
// Input: one live interval per value — its size and the closed step range
// [def, last_use] over which its bytes must stay intact. Output: an offset
// per value inside one flat arena, sized so that any two values whose
// intervals overlap never share bytes.
//
// The assignment is greedy first-fit in definition order: walk values by
// (def, index), collect the ranges already claimed by live neighbours, and
// drop the value into the lowest gap that fits. For a conv chain this
// degenerates to the classic ping-pong pair (a conv's input and output
// overlap at the conv step, so they alternate between two slots) with any
// long-lived residual skip pinned alongside — the planner discovers that
// layout instead of hard-coding it, so unusual graphs (multiple skips,
// chained shuffles) still plan correctly.
//
// Offsets are in elements; the caller owns the element width (the execution
// plan packs each value space separately, u8 images in bytes). Plans are
// computed per shape: a padded image's size is not linear in the pixel
// count, so no plan is rescaled to another shape.
#pragma once

#include <cstdint>
#include <vector>

namespace sesr::core::plan {

struct ValueInterval {
  std::int64_t elements = 0;  // 0-element values take no space
  int def = 0;
  int last_use = 0;  // closed: the value is live through this step
};

struct MemoryPlan {
  std::vector<std::int64_t> offsets;  // one per interval, in elements
  std::int64_t arena_elements = 0;
};

inline bool intervals_overlap(const ValueInterval& a, const ValueInterval& b) {
  return a.def <= b.last_use && b.def <= a.last_use;
}

MemoryPlan plan_memory(const std::vector<ValueInterval>& values);

}  // namespace sesr::core::plan
