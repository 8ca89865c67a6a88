#include "core/sesr_inference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/plan/execution_plan.hpp"
#include "core/plan/planned_executor.hpp"
#include "nn/conv2d.hpp"
#include "nn/depth_to_space.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core {

namespace {
constexpr const char* kConfigKey = "__config";
// Calibration state rides the checkpoint as extra tensors (ignored by older
// readers): activation scales as-is, the hybrid plan as 0/1 floats. The s8
// weights themselves are NOT stored — quantize_conv_weights is deterministic,
// so restoring replays it on the fp32 kernels and every replica of a
// checkpoint holds bit-identical quantized state.
constexpr const char* kActScaleKey = "__int8.act_scale";
constexpr const char* kPlanKey = "__int8.plan";

Tensor encode_config(const SesrConfig& c) {
  Tensor t(1, 1, 1, 8);
  t.raw()[0] = static_cast<float>(c.f);
  t.raw()[1] = static_cast<float>(c.m);
  t.raw()[2] = static_cast<float>(c.scale);
  t.raw()[3] = static_cast<float>(c.expand);
  t.raw()[4] = c.prelu ? 1.0F : 0.0F;
  t.raw()[5] = c.input_residual ? 1.0F : 0.0F;
  t.raw()[6] = c.with_bias ? 1.0F : 0.0F;
  t.raw()[7] = 0.0F;  // reserved
  return t;
}

// Upper bounds a loaded checkpoint may claim. Far above any SESR the paper
// trains (SESR-XL: f=32, m=11), far below anything that overflows sizes.
constexpr std::int64_t kMaxFeatures = 1024;
constexpr std::int64_t kMaxBlocks = 1024;

// A config field stored as float: must be finite, integral and in [lo, hi]
// before it is cast (a float outside int64 range makes the cast UB).
std::int64_t config_int(const Tensor& t, std::int64_t index, const char* field, std::int64_t lo,
                        std::int64_t hi) {
  const float v = t.raw()[index];
  if (!std::isfinite(v) || std::trunc(v) != v || v < static_cast<float>(lo) ||
      v > static_cast<float>(hi)) {
    throw std::runtime_error(std::string("SesrInference: checkpoint config field '") + field +
                             "' out of range");
  }
  return static_cast<std::int64_t>(v);
}

SesrConfig decode_config(const Tensor& t) {
  if (t.numel() < 7) throw std::runtime_error("SesrInference: malformed config tensor");
  SesrConfig c;
  c.f = config_int(t, 0, "f", 1, kMaxFeatures);
  c.m = config_int(t, 1, "m", 0, kMaxBlocks);
  c.scale = config_int(t, 2, "scale", 2, 4);
  if (c.scale == 3) throw std::runtime_error("SesrInference: checkpoint scale must be 2 or 4");
  c.expand = config_int(t, 3, "expand", 0, std::numeric_limits<std::int32_t>::max());
  c.prelu = config_int(t, 4, "prelu", 0, 1) != 0;
  c.input_residual = config_int(t, 5, "input_residual", 0, 1) != 0;
  c.with_bias = config_int(t, 6, "with_bias", 0, 1) != 0;
  return c;
}

// Throws unless `t` has exactly the expected dims.
void expect_shape(const Tensor& t, const Shape& want, const std::string& name) {
  if (!(t.shape() == want)) {
    throw std::runtime_error("SesrInference: checkpoint tensor '" + name + "' has shape " +
                             t.shape().to_string() + ", config implies " + want.to_string());
  }
}

const Tensor* bias_ptr(const CollapsedConv& c) { return c.bias ? &*c.bias : nullptr; }
}  // namespace

void add_input_residual(float* out, const float* input, std::int64_t pixels,
                        std::int64_t out_c) {
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t c = 0; c < out_c; ++c) out[p * out_c + c] += input[p];
  }
}

SesrInference::SesrInference(const SesrNetwork& network) : config_(network.config()) {
  convs_ = plan::collapse_pass(network);
  for (std::int64_t i = 0; i < config_.m + 1; ++i) {
    if (config_.prelu) {
      const auto& prelu =
          dynamic_cast<const nn::PRelu&>(network.activation(static_cast<std::size_t>(i)));
      prelu_alpha_.push_back(prelu.alpha().value);
    } else {
      prelu_alpha_.emplace_back();  // empty = ReLU
    }
  }
}

SesrInference::SesrInference(const TensorMap& map) {
  const auto cfg_it = map.find(kConfigKey);
  if (cfg_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing config");
  config_ = decode_config(cfg_it->second);
  const std::int64_t n_convs = config_.m + 2;
  const std::int64_t f = config_.f;
  for (std::int64_t i = 0; i < n_convs; ++i) {
    // Collapsed HWIO kernels: 5x5 1->f, m x 3x3 f->f, 5x5 f->scale^2.
    const bool first = i == 0;
    const bool last = i == n_convs - 1;
    const std::int64_t k = first || last ? 5 : 3;
    const std::int64_t out_c = last ? config_.output_channels() : f;
    CollapsedConv conv;
    const std::string w_name = "conv" + std::to_string(i) + ".weight";
    const auto w_it = map.find(w_name);
    if (w_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing conv weight");
    expect_shape(w_it->second, Shape(k, k, first ? 1 : f, out_c), w_name);
    conv.weight = w_it->second;
    const std::string b_name = "conv" + std::to_string(i) + ".bias";
    const auto b_it = map.find(b_name);
    if (b_it != map.end()) {
      expect_shape(b_it->second, Shape(1, 1, 1, out_c), b_name);
      conv.bias = b_it->second;
    }
    convs_.push_back(std::move(conv));
  }
  for (std::int64_t i = 0; i < config_.m + 1; ++i) {
    const std::string a_name = "act" + std::to_string(i) + ".alpha";
    const auto a_it = map.find(a_name);
    if (config_.prelu) {
      if (a_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing alpha");
      if (a_it->second.numel() != f) {
        throw std::runtime_error("SesrInference: checkpoint tensor '" + a_name +
                                 "' must hold f slopes");
      }
      prelu_alpha_.push_back(a_it->second);
    } else {
      prelu_alpha_.emplace_back();
    }
  }
  const auto scale_it = map.find(kActScaleKey);
  if (scale_it != map.end()) {
    if (scale_it->second.numel() != n_convs) {
      throw std::runtime_error("SesrInference: malformed int8 activation scales");
    }
    // A zero or NaN scale makes quantize_value cast NaN to int8 (undefined
    // behaviour); a negative or infinite one quantizes every activation wrong.
    for (std::int64_t i = 0; i < n_convs; ++i) {
      const float s = scale_it->second.raw()[i];
      if (!std::isfinite(s) || s <= 0.0F) {
        throw std::runtime_error("SesrInference: int8 activation scale " + std::to_string(i) +
                                 " must be finite and > 0");
      }
    }
    act_scales_.assign(scale_it->second.raw(), scale_it->second.raw() + n_convs);
    s8_weights_.reserve(convs_.size());
    for (const CollapsedConv& c : convs_) s8_weights_.push_back(nn::quantize_conv_weights(c.weight));
  }
  const auto plan_it = map.find(kPlanKey);
  if (plan_it != map.end()) {
    if (plan_it->second.numel() != n_convs) {
      throw std::runtime_error("SesrInference: malformed hybrid plan");
    }
    plan_.reserve(static_cast<std::size_t>(n_convs));
    for (std::int64_t i = 0; i < n_convs; ++i) {
      const float v = plan_it->second.raw()[i];
      if (v != 0.0F && v != 1.0F) {
        throw std::runtime_error("SesrInference: hybrid plan entry " + std::to_string(i) +
                                 " must be 0 or 1");
      }
      plan_.push_back(v == 1.0F ? LayerPrecision::kInt8 : LayerPrecision::kFp16);
    }
  }
}

SesrInference::SesrInference(const SesrInference& other)
    : config_(other.config_),
      convs_(other.convs_),
      prelu_alpha_(other.prelu_alpha_),
      precision_(other.precision_),
      fp16_weights_(other.fp16_weights_),
      act_scales_(other.act_scales_),
      s8_weights_(other.s8_weights_),
      plan_(other.plan_) {}

SesrInference& SesrInference::operator=(const SesrInference& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  convs_ = other.convs_;
  prelu_alpha_ = other.prelu_alpha_;
  precision_ = other.precision_;
  fp16_weights_ = other.fp16_weights_;
  act_scales_ = other.act_scales_;
  s8_weights_ = other.s8_weights_;
  plan_ = other.plan_;
  exec_.reset();  // the copy re-plans lazily
  return *this;
}

SesrInference::SesrInference(SesrInference&&) noexcept = default;
SesrInference& SesrInference::operator=(SesrInference&&) noexcept = default;
SesrInference::~SesrInference() = default;

// Fused-epilogue descriptor for the activation after conv `index`: ReLU when
// the stored alpha tensor is empty, per-channel PReLU otherwise
// (f > 0 ? f : alpha * f), applied inside the GEMM write-back.
nn::Epilogue SesrInference::activation_epilogue(std::size_t index) const {
  const Tensor& alpha = prelu_alpha_.at(index);
  nn::Epilogue e;
  if (alpha.empty()) {
    e.act = nn::Epilogue::Act::kRelu;
    return e;
  }
  if (alpha.numel() != convs_.at(index).weight.shape().dim(3)) {
    throw std::runtime_error("SesrInference: alpha/channel mismatch");
  }
  e.act = nn::Epilogue::Act::kPRelu;
  e.prelu_alpha = alpha.raw();
  return e;
}

Tensor SesrInference::upscale(const Tensor& input) const {
  const Shape& s = input.shape();
  Tensor out(s.n(), s.h() * config_.scale, s.w() * config_.scale, 1);
  upscale_into(input, out);
  return out;
}

void SesrInference::upscale_into(const Tensor& input, Tensor& output) const {
  if (input.shape().c() != 1) {
    throw std::invalid_argument("SesrInference::upscale expects a single (Y) channel");
  }
  if (!exec_) exec_ = std::make_unique<plan::PlannedExecutor>();
  exec_->run(*this, input, output);
}

std::int64_t SesrInference::plan_arena_bytes() const {
  return exec_ ? exec_->arena_bytes() : 0;
}

Tensor SesrInference::upscale_direct(const Tensor& input) const {
  if (input.shape().c() != 1) {
    throw std::invalid_argument("SesrInference::upscale expects a single (Y) channel");
  }
  if (precision_ == InferencePrecision::kFp16) return upscale_fp16(input);
  if (precision_ == InferencePrecision::kInt8 || precision_ == InferencePrecision::kHybrid) {
    return upscale_mixed(input);
  }
  return upscale_direct(input, nullptr);
}

Tensor SesrInference::upscale_direct(const Tensor& input, const LayerObserver& observe) const {
  // Every conv except the last fuses its activation into the GEMM store
  // (one less full sweep over the feature maps than a separate pass).
  auto run_act_conv = [&](std::size_t i, const Tensor& x) {
    if (observe) observe(i, x);
    const CollapsedConv& c = convs_[i];
    return nn::conv2d_fused(x, c.weight, bias_ptr(c), activation_epilogue(i),
                            nn::Padding::kSame);
  };
  Tensor feat = run_act_conv(0, input);
  Tensor skip = feat;
  for (std::size_t i = 1; i + 1 < convs_.size(); ++i) {
    feat = run_act_conv(i, feat);
  }
  add_inplace(feat, skip);
  if (observe) observe(convs_.size() - 1, feat);
  const CollapsedConv& last = convs_.back();
  Tensor out = last.bias ? nn::conv2d_bias(feat, last.weight, *last.bias, nn::Padding::kSame)
                         : nn::conv2d(feat, last.weight, nn::Padding::kSame);
  if (config_.input_residual) {
    const std::int64_t oc = config_.output_channels();
    add_input_residual(out.raw(), input.raw(), out.numel() / oc, oc);
  }
  Tensor y = nn::depth_to_space(out, 2);
  if (config_.scale == 4) y = nn::depth_to_space(y, 2);
  return y;
}

Tensor SesrInference::upscale_fp16(const Tensor& input) const {
  // Input is rounded to binary16 once; from there every layer reads fp16
  // activations, accumulates in fp32, applies bias + activation in fp32 and
  // stores back one binary16 rounding. The tail (input residual and
  // depth-to-space) runs on the last conv's fp32 accumulator directly.
  fp16::HalfTensor x = fp16::HalfTensor::from_float(input);
  auto run_act_conv = [this](std::size_t i, const fp16::HalfTensor& h) {
    return nn::conv2d_fp16(h, fp16_weights_[i], bias_ptr(convs_[i]), activation_epilogue(i),
                           nn::Padding::kSame);
  };
  fp16::HalfTensor feat = run_act_conv(0, x);
  fp16::HalfTensor skip = feat;
  for (std::size_t i = 1; i + 1 < convs_.size(); ++i) {
    feat = run_act_conv(i, feat);
  }
  fp16::add_inplace(feat, skip);
  Tensor out = nn::conv2d_fp16_to_float(feat, fp16_weights_.back(), bias_ptr(convs_.back()),
                                        nn::Epilogue{}, nn::Padding::kSame);
  if (config_.input_residual) {
    // The fp16 path saw the rounded input, so the residual adds the same
    // rounded values (in fp32 arithmetic, no extra rounding on the result).
    const Tensor rounded_in = x.to_float();
    const std::int64_t oc = config_.output_channels();
    add_input_residual(out.raw(), rounded_in.raw(), out.numel() / oc, oc);
  }
  Tensor y = nn::depth_to_space(out, 2);
  if (config_.scale == 4) y = nn::depth_to_space(y, 2);
  return y;
}

void SesrInference::ensure_fp16_weights() {
  if (!fp16_weights_.empty()) return;
  fp16_weights_.reserve(convs_.size());
  for (const CollapsedConv& c : convs_) {
    fp16_weights_.push_back(fp16::HalfTensor::from_float(c.weight));
  }
}

void SesrInference::set_precision(InferencePrecision precision) {
  if (precision == InferencePrecision::kFp16) ensure_fp16_weights();
  if (precision == InferencePrecision::kInt8 || precision == InferencePrecision::kHybrid) {
    if (!int8_calibrated()) {
      throw std::logic_error("SesrInference: int8/hybrid precision requires calibrate_int8()");
    }
  }
  if (precision == InferencePrecision::kHybrid) {
    if (plan_.size() != convs_.size()) {
      throw std::logic_error("SesrInference: hybrid precision requires set_hybrid_plan()");
    }
    ensure_fp16_weights();  // the plan's fp16 layers
  }
  precision_ = precision;
  if (exec_) exec_->invalidate();
}

void SesrInference::set_hybrid_plan(std::vector<LayerPrecision> plan) {
  if (plan.size() != convs_.size()) {
    throw std::invalid_argument("SesrInference: hybrid plan must hold one entry per conv");
  }
  plan_ = std::move(plan);
  if (exec_) exec_->invalidate();
}

void SesrInference::calibrate_int8(const std::vector<Tensor>& frames) {
  if (frames.empty()) {
    throw std::invalid_argument("SesrInference::calibrate_int8: no calibration frames");
  }
  s8_weights_.clear();
  s8_weights_.reserve(convs_.size());
  for (const CollapsedConv& c : convs_) s8_weights_.push_back(nn::quantize_conv_weights(c.weight));
  std::vector<float> scales(convs_.size(), 0.0F);
  for (const Tensor& frame : frames) {
    if (frame.shape().c() != 1) {
      throw std::invalid_argument(
          "SesrInference::calibrate_int8: calibration frames must be Y-channel");
    }
    upscale_direct(frame, [&](std::size_t layer, const Tensor& x) {
      scales[layer] = std::max(scales[layer], max_abs(x) / 127.0F);
    });
  }
  for (float& s : scales) {
    if (s <= 0.0F) s = nn::kDegenerateQuantScale;
  }
  act_scales_ = std::move(scales);
}

Tensor SesrInference::upscale_mixed(const Tensor& input) const {
  // fp32 carrier between layers (the planned path carries u8 images between
  // int8 layers instead, bit for bit the same): int8 layers quantize their
  // input once into a zero-point-padded image with the calibrated fixed
  // scale; fp16 layers round the carrier through binary16 on the way in and
  // round their stored output once (so an fp16 layer behaves exactly like
  // one layer of the pure-fp16 path).
  // The residual adds and the tail stay fp32. With a fixed per-layer scale
  // every elementwise step commutes with cropping, so tiled execution
  // reproduces this path bit-exactly.
  const std::size_t n_convs = convs_.size();
  auto layer_is_int8 = [&](std::size_t i) {
    return precision_ == InferencePrecision::kInt8 || plan_[i] == LayerPrecision::kInt8;
  };
  auto run_conv = [&](std::size_t i, const Tensor& x, bool with_act) {
    const CollapsedConv& c = convs_[i];
    const nn::Epilogue epi = with_act ? activation_epilogue(i) : nn::Epilogue{};
    if (layer_is_int8(i)) {
      return nn::conv2d_s8(x, act_scales_[i], s8_weights_[i], bias_ptr(c), epi,
                           nn::Padding::kSame);
    }
    const fp16::HalfTensor h = fp16::HalfTensor::from_float(x);
    Tensor out = nn::conv2d_fp16_to_float(h, fp16_weights_[i], bias_ptr(c), epi,
                                          nn::Padding::kSame);
    if (i + 1 < n_convs) fp16::round_through_half(out.raw(), out.numel());
    return out;
  };
  Tensor feat = run_conv(0, input, /*with_act=*/true);
  Tensor skip = feat;
  for (std::size_t i = 1; i + 1 < n_convs; ++i) {
    feat = run_conv(i, feat, /*with_act=*/true);
  }
  add_inplace(feat, skip);
  Tensor out = run_conv(n_convs - 1, feat, /*with_act=*/false);
  if (config_.input_residual) {
    const std::int64_t oc = config_.output_channels();
    add_input_residual(out.raw(), input.raw(), out.numel() / oc, oc);
  }
  Tensor y = nn::depth_to_space(out, 2);
  if (config_.scale == 4) y = nn::depth_to_space(y, 2);
  return y;
}

std::int64_t SesrInference::parameter_count() const {
  std::int64_t p = 0;
  for (const CollapsedConv& c : convs_) {
    p += c.weight.numel();
    if (c.bias) p += c.bias->numel();
  }
  return p;
}

TensorMap SesrInference::to_tensor_map() const {
  TensorMap map;
  map.emplace(kConfigKey, encode_config(config_));
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    map.emplace("conv" + std::to_string(i) + ".weight", convs_[i].weight);
    if (convs_[i].bias) map.emplace("conv" + std::to_string(i) + ".bias", *convs_[i].bias);
  }
  for (std::size_t i = 0; i < prelu_alpha_.size(); ++i) {
    if (!prelu_alpha_[i].empty()) map.emplace("act" + std::to_string(i) + ".alpha", prelu_alpha_[i]);
  }
  if (int8_calibrated()) {
    Tensor scales(1, 1, 1, static_cast<std::int64_t>(act_scales_.size()));
    for (std::size_t i = 0; i < act_scales_.size(); ++i) scales.raw()[i] = act_scales_[i];
    map.emplace(kActScaleKey, std::move(scales));
  }
  if (!plan_.empty()) {
    Tensor plan(1, 1, 1, static_cast<std::int64_t>(plan_.size()));
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      plan.raw()[i] = plan_[i] == LayerPrecision::kInt8 ? 1.0F : 0.0F;
    }
    map.emplace(kPlanKey, std::move(plan));
  }
  return map;
}

}  // namespace sesr::core
