// Compiled execution plan: fused steps + a static activation memory plan.
//
// compile() runs the whole pipeline for one network at one input shape:
// build the IR, lower and fuse it (passes.hpp), bind every conv step's
// kernel from its layer's precision, assign every surviving value a storage
// space (fp32 carrier, binary16 or u8 image), derive live intervals, and let
// the memory planner pack each space into one flat arena. The result is a
// closed-form recipe the planned executor replays: for each step, which
// kernel, which weights, and the exact arena offsets of its operands. No
// allocation or precision decisions remain at run time.
//
// Precision is per-layer plan data, never a step-list change: kFp32 binds
// every conv to the fp32 kernel, kInt8 every conv to the int8 kernel, kHybrid
// follows the network's stored hybrid_plan() (so an all-int8 hybrid plan
// compiles to exactly the kInt8 steps), and kFp16 binds half-space kernels
// with inter-conv activations stored as binary16. Where a kernel reads a
// value in the other space, the step carries a staging conversion into a
// step-local value — all mirroring the direct per-precision upscale paths
// kernel for kernel.
//
// The u8 carrier: an int8 conv whose output one int8 conv reads, as its main
// input, stores that value as the reader's zero-point-padded u8 image (space
// kU8) — its epilogue adds the fused residual, requantizes with the reader's
// activation scale and writes the image's border (nn::S8ConvOutput). So a
// u8 value is sized as the reader's image plus the kernels' over-read slack
// (nn::S8ImageLayout::bytes), and no other value live at either step can
// share those bytes. In SESR-M5 int8 that covers the outputs of the five
// middle convs; conv 0's output stays float because the long residual reads
// it five steps later, and the last conv's output feeds the float tail. The
// direct path (upscale_direct) keeps the fp32 carrier throughout and is the
// reference the u8 carrier is audited against bit for bit.
//
// Float and half values scale linearly with the LR pixel count; a u8 image
// adds its padding frame and slack, so arena sizes are exact per compiled
// shape only (peak_activation_bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan/memory_planner.hpp"
#include "core/plan/passes.hpp"
#include "core/sesr_inference.hpp"

namespace sesr::core::plan {

// Constant-folding pass: collapse every trained linear block into its single
// equivalent conv (Algorithm 1) with the short residual and all biases folded
// through (Algorithm 2). Weights and biases become plan-time constants; the
// SesrInference constructor delegates here.
std::vector<CollapsedConv> collapse_pass(const SesrNetwork& network);

// kU8 values are padded u8 images; their elements are bytes.
enum class ValueSpace : std::uint8_t { kFloat, kHalf, kU8 };

struct PlanValue {
  std::int64_t elements = 0;  // per batch item, at the compiled shape
  ValueSpace space = ValueSpace::kFloat;
  int def = 0;       // step defining the value (input staging: step 0)
  int last_use = 0;  // last step reading or updating it (closed interval)
  std::int64_t offset = 0;  // elements into its space's arena
  bool external = false;    // the network output: caller's buffer, not arena
};

// The kernel a conv step runs, bound at compile time from its layer's
// precision. The name is the operand spaces: input -> output.
enum class ConvKernel : std::uint8_t {
  kFp32,         // nn::conv2d_into: float -> float
  kInt8,         // nn::conv2d_s8_into / conv2d_s8_image_into: float or u8 -> float or u8
  kFp16,         // nn::conv2d_fp16_into: half -> half
  kFp16ToFloat,  // nn::conv2d_fp16_to_float_into: half -> float
};

// One executor step. The op's input/skip/output fields are rewritten to
// PlanValue indices naming the buffers the kernel reads and writes, in the
// kernel's own spaces (kInputValue still means the caller's fp32 input).
struct PlanStep {
  PlanOp op;
  std::vector<int> temps;  // shuffle-chain intermediates, in chain order
  ConvKernel kernel = ConvKernel::kFp32;
  // Before the kernel: convert `stage_from` into `stage` (one value is float,
  // the other half). kNoValue = no staging.
  int stage_from = kNoValue;
  int stage = kNoValue;
  bool round_output = false;   // round the float output through binary16
  bool input_residual = false;  // skip broadcasts the (1-channel) input over out_c
  // kU8 output: the conv (network index) reading it, whose activation scale
  // and image layout the epilogue writes; -1 otherwise.
  int requant_conv = -1;
};

class ExecutionPlan {
 public:
  // Compiles for the network's current precision (int8/hybrid state must
  // already be present, as set_precision enforces).
  static ExecutionPlan compile(const SesrInference& net, std::int64_t lr_h, std::int64_t lr_w);

  const std::vector<PlanStep>& steps() const { return steps_; }
  const std::vector<PlanValue>& values() const { return values_; }
  std::int64_t lr_h() const { return lr_h_; }
  std::int64_t lr_w() const { return lr_w_; }

  // Arena sizes per batch item at the compiled shape.
  std::int64_t float_arena_elements() const { return float_arena_elements_; }
  std::int64_t half_arena_elements() const { return half_arena_elements_; }
  std::int64_t u8_arena_bytes() const { return u8_arena_bytes_; }
  // Exactly what the planned executor's arenas hold after running this plan
  // on one batch item (N items: N times this).
  std::int64_t peak_activation_bytes() const {
    return float_arena_elements_ * static_cast<std::int64_t>(sizeof(float)) +
           half_arena_elements_ * 2 + u8_arena_bytes_;
  }

 private:
  std::vector<PlanStep> steps_;
  std::vector<PlanValue> values_;
  std::int64_t float_arena_elements_ = 0;
  std::int64_t half_arena_elements_ = 0;
  std::int64_t u8_arena_bytes_ = 0;
  std::int64_t lr_h_ = 0;
  std::int64_t lr_w_ = 0;
};

}  // namespace sesr::core::plan
