#include "core/plan/execution_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesr::core::plan {

std::vector<CollapsedConv> collapse_pass(const SesrNetwork& network) {
  const auto collapse = [](const CollapsibleBlock& block) {
    CollapsedConv conv;
    conv.weight = block.collapsed_weight();
    conv.bias = block.collapsed_bias();
    return conv;
  };
  std::vector<CollapsedConv> convs;
  convs.reserve(network.middle_blocks().size() + 2);
  convs.push_back(collapse(network.first_block()));
  for (const auto& b : network.middle_blocks()) convs.push_back(collapse(*b));
  convs.push_back(collapse(network.last_block()));
  return convs;
}

ExecutionPlan ExecutionPlan::compile(const SesrInference& net, std::int64_t lr_h,
                                     std::int64_t lr_w) {
  const hw::NetworkIr ir = hw::sesr_ir(net.config(), lr_h, lr_w);
  std::vector<PlanOp> ops = lower_and_fuse(ir);

  ExecutionPlan plan;
  plan.lr_h_ = lr_h;
  plan.lr_w_ = lr_w;
  const int n_steps = static_cast<int>(ops.size());

  // Value ids are original lowered-op indices; remap to dense PlanValue
  // indices and derive [def, last_use] from the fused program's reads.
  std::vector<int> vmap(ir.layers.size(), kNoValue);
  for (int s = 0; s < n_steps; ++s) {
    PlanValue v;
    v.elements = ops[s].output_elements();
    v.def = s;
    v.last_use = s;
    v.external = s == n_steps - 1;
    vmap[static_cast<std::size_t>(ops[s].output)] = static_cast<int>(plan.values_.size());
    plan.values_.push_back(v);
  }
  for (int s = 0; s < n_steps; ++s) {
    const auto remap = [&](int& ref) {
      if (ref < 0) return;  // kInputValue stays symbolic
      ref = vmap[static_cast<std::size_t>(ref)];
      if (ref == kNoValue) {
        throw std::logic_error("ExecutionPlan: op references a value no pass defines");
      }
      plan.values_[static_cast<std::size_t>(ref)].last_use =
          std::max(plan.values_[static_cast<std::size_t>(ref)].last_use, s);
    };
    remap(ops[s].input);
    remap(ops[s].skip);
    ops[s].output = vmap[static_cast<std::size_t>(ops[s].output)];
  }

  int last_conv_step = -1;
  plan.steps_.reserve(ops.size());
  for (int s = 0; s < n_steps; ++s) {
    if (ops[s].kind == hw::OpKind::kConv) last_conv_step = s;
    PlanStep step;
    step.op = std::move(ops[s]);
    plan.steps_.push_back(std::move(step));
  }

  const auto add_value = [&](std::int64_t elements, ValueSpace space, int def, int last_use) {
    PlanValue v;
    v.elements = elements;
    v.space = space;
    v.def = def;
    v.last_use = last_use;
    plan.values_.push_back(v);
    return static_cast<int>(plan.values_.size()) - 1;
  };

  // Bind every conv step's kernel from its layer's precision. A half-output
  // kernel moves its value into binary16 space.
  const InferencePrecision precision = net.precision();
  const auto layer_kernel = [&](const PlanOp& op, bool last_conv) {
    switch (precision) {
      case InferencePrecision::kFp32:
        return ConvKernel::kFp32;
      case InferencePrecision::kInt8:
        return ConvKernel::kInt8;
      case InferencePrecision::kFp16:
        // The last conv keeps its fp32 accumulator for the float tail.
        return last_conv ? ConvKernel::kFp16ToFloat : ConvKernel::kFp16;
      case InferencePrecision::kHybrid:
        return net.hybrid_plan().at(static_cast<std::size_t>(op.conv_index)) ==
                       LayerPrecision::kInt8
                   ? ConvKernel::kInt8
                   : ConvKernel::kFp16ToFloat;
    }
    throw std::logic_error("ExecutionPlan: unknown precision");
  };

  // A half-input kernel whose operand sits on the fp32 carrier reads it
  // through a step-local binary16 copy (producers precede their readers, so
  // the operand's space is already bound). Hybrid fp16 layers also round
  // their stored output once, so each behaves like one layer of the fp16 path.
  for (int s = 0; s < n_steps; ++s) {
    PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
    PlanOp& op = step.op;
    step.input_residual = op.skip == kInputValue;
    if (op.kind != hw::OpKind::kConv) continue;
    step.kernel = layer_kernel(op, s == last_conv_step);
    if (step.kernel == ConvKernel::kFp32 || step.kernel == ConvKernel::kInt8) continue;
    if (step.kernel == ConvKernel::kFp16) {
      plan.values_[static_cast<std::size_t>(op.output)].space = ValueSpace::kHalf;
    }
    if (op.input == kInputValue ||
        plan.values_[static_cast<std::size_t>(op.input)].space == ValueSpace::kFloat) {
      step.stage_from = op.input;
      step.stage = add_value(op.input_elements(), ValueSpace::kHalf, s, s);
      op.input = step.stage;
    }
    step.round_output = precision == InferencePrecision::kHybrid && s != last_conv_step;
  }

  // The u8 carrier (see the header): an int8 conv whose output exactly one
  // step reads, as the main input of an int8 conv, writes it as that conv's
  // padded image. Its fused residual, if any, must be another float value: a
  // self-skip adds the fp32 output to itself, and the input residual is the
  // broadcast tail add.
  for (int s = 0; s < n_steps; ++s) {
    PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
    const PlanOp& op = step.op;
    if (op.kind != hw::OpKind::kConv || step.kernel != ConvKernel::kInt8) continue;
    if (op.skip == op.output || step.input_residual) continue;
    int reads = 0;
    int reader = -1;
    for (int t = s + 1; t < n_steps; ++t) {
      const PlanStep& other = plan.steps_[static_cast<std::size_t>(t)];
      reads += (other.op.input == op.output) + (other.op.skip == op.output) +
               (other.stage_from == op.output);
      if (other.op.input == op.output) reader = t;
    }
    if (reads != 1 || reader < 0) continue;
    const PlanStep& next = plan.steps_[static_cast<std::size_t>(reader)];
    if (next.op.kind != hw::OpKind::kConv || next.kernel != ConvKernel::kInt8) continue;
    PlanValue& v = plan.values_[static_cast<std::size_t>(op.output)];
    step.requant_conv = next.op.conv_index;
    v.space = ValueSpace::kU8;
    v.elements = nn::s8_image_layout(op.out_h(), op.out_w(),
                                     net.s8_weights().at(static_cast<std::size_t>(
                                         step.requant_conv)),
                                     nn::Padding::kSame)
                     .bytes(1);
  }
  // The images differ only by their reader's padding (a 5x5 reader's is two
  // rows and columns wider than a 3x3 reader's). Sized alike they alternate
  // between two slots; otherwise the last, larger image would not fit the
  // smaller slot just freed, and first-fit would open a third.
  std::int64_t u8_slot = 0;
  for (const PlanValue& v : plan.values_) {
    if (v.space == ValueSpace::kU8) u8_slot = std::max(u8_slot, v.elements);
  }
  for (PlanValue& v : plan.values_) {
    if (v.space == ValueSpace::kU8) v.elements = u8_slot;
  }

  // fp16 holds the input in binary16 too: the first step's staged copy stays
  // live for every later reader, and the input residual adds those rounded
  // values, widened back into a step-local float value.
  if (precision == InferencePrecision::kFp16) {
    const int input_half = plan.steps_.front().stage;
    for (int s = 0; s < n_steps; ++s) {
      PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
      if (!step.input_residual) continue;
      if (input_half == kNoValue || step.stage != kNoValue) {
        throw std::logic_error("ExecutionPlan: fp16 input residual without a staged input");
      }
      PlanValue& half = plan.values_[static_cast<std::size_t>(input_half)];
      half.last_use = std::max(half.last_use, s);
      const std::int64_t elements = half.elements;  // add_value may reallocate
      step.stage_from = input_half;
      step.stage = add_value(elements, ValueSpace::kFloat, s, s);
      step.op.skip = step.stage;
    }
  }

  // Chained depth-to-space intermediates (scale 4): step-local float temps.
  for (int s = 0; s < n_steps; ++s) {
    PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
    if (step.op.kind != hw::OpKind::kDepthToSpace) continue;
    for (std::size_t k = 0; k + 1 < step.op.blocks.size(); ++k) {
      // A shuffle is a permutation: every intermediate has the input's numel.
      step.temps.push_back(add_value(step.op.input_elements(), ValueSpace::kFloat, s, s));
    }
  }

  // Pack each space into its own flat arena. The final output lives in the
  // caller's buffer, not the arena.
  const auto pack = [&](ValueSpace space) {
    std::vector<ValueInterval> intervals(plan.values_.size());
    for (std::size_t i = 0; i < plan.values_.size(); ++i) {
      const PlanValue& v = plan.values_[i];
      intervals[i].def = v.def;
      intervals[i].last_use = v.last_use;
      intervals[i].elements = (v.space == space && !v.external) ? v.elements : 0;
    }
    const MemoryPlan mem = plan_memory(intervals);
    for (std::size_t i = 0; i < plan.values_.size(); ++i) {
      if (plan.values_[i].space == space && !plan.values_[i].external) {
        plan.values_[i].offset = mem.offsets[i];
      }
    }
    return mem.arena_elements;
  };
  plan.float_arena_elements_ = pack(ValueSpace::kFloat);
  plan.half_arena_elements_ = pack(ValueSpace::kHalf);
  plan.u8_arena_bytes_ = pack(ValueSpace::kU8);
  return plan;
}

}  // namespace sesr::core::plan
