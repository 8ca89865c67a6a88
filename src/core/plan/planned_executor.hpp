// Interprets compiled execution plans with statically planned arenas.
//
// The executor owns nothing about the network: run() takes the SesrInference
// whose weights it replays, and the executor holds only (a) a small cache of
// compiled plans keyed by input shape and (b) the three activation arenas
// (fp32 carrier, binary16 and the int8 layers' u8 images). The arenas grow
// on demand to exactly the largest plan run so far and never shrink; every
// plan in the cache shares them, so a step never relies on bytes an earlier
// run left behind (a u8 image's producer rewrites its border each run).
// Steady state — same shape, warm cache, arenas grown — performs zero heap
// allocations: every layer output lands in a planner-assigned arena slice
// and the final step writes the caller's output buffer directly.
//
// Batching scales the compiled plan instead of recompiling: every offset and
// size is per batch item, so the executor multiplies both by N. That keeps
// slices disjoint because disjointness is preserved under a common positive
// scale factor.
//
// One step loop serves every precision: each conv step runs the kernel the
// plan bound for its layer (plus the step's staging conversion and rounding),
// so nothing here branches on the network's precision. Those bindings mirror
// the direct upscale_direct paths kernel for kernel (same entry points, same
// epilogues, same rounding steps, same op order), so planned output is
// bit-identical to direct output in every precision — the plan changes where
// bytes live, never arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan/execution_plan.hpp"
#include "tensor/fp16.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core::plan {

class PlannedExecutor {
 public:
  // Upscales `input` (N, H, W, 1) into `output` (N, scale*H, scale*W, 1),
  // which must be pre-shaped. Compiles/caches the plan for (H, W) on first
  // use; allocation-free afterwards.
  void run(const SesrInference& net, const Tensor& input, Tensor& output);

  // Bytes currently retained by the three arenas (capacity, not size: what
  // the process actually holds). run() grows each arena to exactly the
  // largest plan it has run and never shrinks it, so after runs whose plans
  // grow together (SESR's do: a larger frame needs more of every space) this
  // is batch * ExecutionPlan::peak_activation_bytes() of the largest unit.
  std::int64_t arena_bytes() const;

  // Drop cached plans. The network calls this whenever its precision or
  // hybrid assignment changes, which is what keeps the shape-keyed cache
  // valid. Arenas keep their memory.
  void invalidate();

 private:
  struct CachedPlan {
    ExecutionPlan plan;
    std::uint64_t stamp = 0;  // LRU clock
  };

  // The cached (or freshly compiled) plan for one LR shape at the network's
  // current precision.
  const ExecutionPlan& plan_for(const SesrInference& net, std::int64_t lr_h, std::int64_t lr_w);

  std::vector<CachedPlan> plans_;
  std::uint64_t stamp_ = 0;
  std::vector<float> float_arena_;
  std::vector<fp16::Half> half_arena_;
  std::vector<std::uint8_t> u8_arena_;
};

}  // namespace sesr::core::plan
