#include "core/plan/planned_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/depth_to_space.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core::plan {
namespace {

// A handful of shapes covers full frames plus the serve layer's tile sizes.
constexpr std::size_t kMaxCachedPlans = 8;

// Grows `arena` to exactly `need` elements as a fresh allocation: the old
// buffer is freed first and its dead contents are never copied, and the
// capacity is `need`, not the next doubling.
template <typename T>
void grow_exact(std::vector<T>& arena, std::size_t need) {
  if (arena.size() >= need) return;
  arena = std::vector<T>();
  arena.resize(need);
}

}  // namespace

const ExecutionPlan& PlannedExecutor::plan_for(const SesrInference& net, std::int64_t lr_h,
                                               std::int64_t lr_w) {
  for (CachedPlan& cached : plans_) {
    if (cached.plan.lr_h() == lr_h && cached.plan.lr_w() == lr_w) {
      cached.stamp = ++stamp_;
      return cached.plan;
    }
  }
  if (plans_.size() >= kMaxCachedPlans) {
    const auto lru = std::min_element(
        plans_.begin(), plans_.end(),
        [](const CachedPlan& a, const CachedPlan& b) { return a.stamp < b.stamp; });
    plans_.erase(lru);
  }
  plans_.push_back(CachedPlan{ExecutionPlan::compile(net, lr_h, lr_w), ++stamp_});
  return plans_.back().plan;
}

std::int64_t PlannedExecutor::arena_bytes() const {
  return static_cast<std::int64_t>(float_arena_.capacity() * sizeof(float)) +
         static_cast<std::int64_t>(half_arena_.capacity() * sizeof(fp16::Half)) +
         static_cast<std::int64_t>(u8_arena_.capacity());
}

void PlannedExecutor::invalidate() { plans_.clear(); }

void PlannedExecutor::run(const SesrInference& net, const Tensor& input, Tensor& output) {
  const Shape& in_shape = input.shape();
  const ExecutionPlan& p = plan_for(net, in_shape.h(), in_shape.w());
  const std::int64_t batch = in_shape.n();
  const PlanStep& final_step = p.steps().back();
  if (output.numel() != final_step.op.output_elements() * batch) {
    throw std::invalid_argument("PlannedExecutor::run: output tensor has the wrong shape");
  }
  const auto f_need = static_cast<std::size_t>(p.float_arena_elements() * batch);
  const auto h_need = static_cast<std::size_t>(p.half_arena_elements() * batch);
  grow_exact(float_arena_, f_need);
  grow_exact(half_arena_, h_need);
  grow_exact(u8_arena_, static_cast<std::size_t>(p.u8_arena_bytes() * batch));

  // Operand addresses. Plan sizes and offsets are per batch item, so both
  // scale by the batch; kInputValue is the caller's input, the external value
  // the caller's output.
  const auto value = [&](int v) -> const PlanValue& {
    return p.values()[static_cast<std::size_t>(v)];
  };
  const auto float_ptr = [&](int v) {
    return value(v).external ? output.raw() : float_arena_.data() + value(v).offset * batch;
  };
  const auto float_src = [&](int v) -> const float* {
    return v == kInputValue ? input.raw() : float_ptr(v);
  };
  const auto half_ptr = [&](int v) { return half_arena_.data() + value(v).offset * batch; };
  const auto u8_ptr = [&](int v) { return u8_arena_.data() + value(v).offset * batch; };

  for (const PlanStep& step : p.steps()) {
    const PlanOp& op = step.op;
    if (step.stage != kNoValue) {
      const std::int64_t n = value(step.stage).elements * batch;
      if (value(step.stage).space == ValueSpace::kHalf) {
        fp16::convert_to_half(float_src(step.stage_from), half_ptr(step.stage), n);
      } else {
        fp16::convert_to_float(half_ptr(step.stage_from), float_ptr(step.stage), n);
      }
    }
    if (op.kind == hw::OpKind::kDepthToSpace) {
      // Chained shuffles (scale 4) pass through step-local temps.
      const float* cur = float_src(op.input);
      Shape shape(batch, op.in_h, op.in_w, op.in_c);
      for (std::size_t k = 0; k < op.blocks.size(); ++k) {
        const std::int64_t b = op.blocks[k];
        float* dst = float_ptr(k + 1 == op.blocks.size() ? op.output : step.temps[k]);
        nn::depth_to_space_into(cur, shape, b, dst);
        shape = Shape(batch, shape.h() * b, shape.w() * b, shape.c() / (b * b));
        cur = dst;
      }
      continue;
    }
    if (op.kind != hw::OpKind::kConv) {
      throw std::logic_error("PlannedExecutor: unfused op survived the pass pipeline");
    }
    const auto conv = static_cast<std::size_t>(op.conv_index);
    const CollapsedConv& c = net.convolutions()[conv];
    const Tensor* bias = c.bias ? &*c.bias : nullptr;
    const Shape conv_in(batch, op.in_h, op.in_w, op.in_c);
    const nn::Epilogue epi = op.act_index >= 0
                                 ? net.activation_epilogue(static_cast<std::size_t>(op.act_index))
                                 : nn::Epilogue{};
    switch (step.kernel) {
      case ConvKernel::kFp32:
        // No epilogue at all without an activation: conv2d / conv2d_bias.
        nn::conv2d_into(float_src(op.input), conv_in, c.weight, bias,
                        op.act_index >= 0 ? &epi : nullptr, nn::Padding::kSame,
                        float_ptr(op.output));
        break;
      case ConvKernel::kInt8: {
        const nn::S8ConvWeights& w = net.s8_weights()[conv];
        const float scale = net.activation_scales()[conv];
        nn::S8ConvOutput out;
        if (step.requant_conv >= 0) {
          const auto next = static_cast<std::size_t>(step.requant_conv);
          out.u8 = u8_ptr(op.output);
          out.u8_layout = nn::s8_image_layout(op.out_h(), op.out_w(), net.s8_weights()[next],
                                              nn::Padding::kSame);
          out.u8_act_scale = net.activation_scales()[next];
          if (op.skip != kNoValue) out.residual = float_src(op.skip);
        } else {
          out.f32 = float_ptr(op.output);
        }
        if (op.input != kInputValue && value(op.input).space == ValueSpace::kU8) {
          nn::conv2d_s8_image_into(
              u8_ptr(op.input), nn::s8_image_layout(op.in_h, op.in_w, w, nn::Padding::kSame),
              batch, scale, w, bias, epi, out);
        } else {
          nn::conv2d_s8_into(float_src(op.input), conv_in, scale, w, bias, epi,
                             nn::Padding::kSame, out);
        }
        break;
      }
      case ConvKernel::kFp16:
        nn::conv2d_fp16_into(half_ptr(op.input), conv_in, net.fp16_weights()[conv], bias, epi,
                             nn::Padding::kSame, half_ptr(op.output));
        break;
      case ConvKernel::kFp16ToFloat:
        nn::conv2d_fp16_to_float_into(half_ptr(op.input), conv_in, net.fp16_weights()[conv], bias,
                                      epi, nn::Padding::kSame, float_ptr(op.output));
        break;
    }
    const std::int64_t n = op.output_elements() * batch;
    if (step.round_output) fp16::round_through_half(float_ptr(op.output), n);
    // A u8 output's epilogue already added its residual.
    if (op.skip == kNoValue || step.requant_conv >= 0) continue;
    if (value(op.output).space == ValueSpace::kHalf) {
      fp16::add_inplace(half_ptr(op.output), half_ptr(op.skip), n);
    } else if (step.input_residual) {
      add_input_residual(float_ptr(op.output), float_src(op.skip), n / op.out_c, op.out_c);
    } else {
      add_inplace(float_ptr(op.output), float_src(op.skip), n);
    }
  }
}

}  // namespace sesr::core::plan
