// 2-D convolution: stateless functional ops plus a trainable Layer.
//
// Kernels are HWIO tensors (kh, kw, in_c, out_c) and activations NHWC. The
// functional entry points are used directly by the collapse algebra
// (Algorithm 1 convolves an identity probe with VALID padding) and by the
// efficient-training mode, which backpropagates *through* those same ops.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "tensor/fp16.hpp"
#include "tensor/tensor.hpp"

namespace sesr::nn {

enum class Padding { kSame, kValid };

// Geometry helper for a conv over `input` with the given kernel.
ConvGeometry conv_geometry(const Tensor& input, const Tensor& weight, Padding padding,
                           std::int64_t stride = 1);

// out[n, oy, ox, oc] = sum_{ky,kx,ic} in[n, oy*s - pt + ky, ox*s - pl + kx, ic] * w[ky, kx, ic, oc]
Tensor conv2d(const Tensor& input, const Tensor& weight, Padding padding, std::int64_t stride = 1);

// Same, plus per-output-channel bias (1, 1, 1, out_c) fused into the GEMM
// epilogue (single pass over the output).
Tensor conv2d_bias(const Tensor& input, const Tensor& weight, const Tensor& bias, Padding padding,
                   std::int64_t stride = 1);

// out = act(conv2d(input, weight) + bias) with the activation fused into the
// GEMM write-back (see nn::Epilogue) — one pass over the output instead of a
// conv pass plus an elementwise activation pass. `bias` may be null. The
// result is bit-identical to conv2d_bias / conv2d followed by the equivalent
// elementwise activation.
Tensor conv2d_fused(const Tensor& input, const Tensor& weight, const Tensor* bias,
                    const Epilogue& epilogue, Padding padding, std::int64_t stride = 1);

// Reduced-precision forward: input and weight are binary16 storage, widened
// inside the GEMM's packs; the same forward as conv2d accumulates in fp32,
// bias add and activation ride the fused epilogue in fp32, and each finished
// output stripe is rounded to binary16 exactly once. Deterministic for any thread count (fixed stripe boundaries,
// fixed k-block order), so tiled and full-frame fp16 inference agree bitwise.
fp16::HalfTensor conv2d_fp16(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                             const Tensor* bias, const Epilogue& epilogue, Padding padding,
                             std::int64_t stride = 1);

// Same compute, but the fp32 accumulator stripe is stored directly — no final
// rounding. Used for the last conv of the fp16 network, whose output feeds
// the fp32 residual add + depth_to_space.
Tensor conv2d_fp16_to_float(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                            const Tensor* bias, const Epilogue& epilogue, Padding padding,
                            std::int64_t stride = 1);

// Output-span forms for the execution-plan path (src/core/plan): input and
// output are raw NHWC images in caller-provided storage (planner arena
// slices), `in_shape` describes `input`, and `out` must hold
// n * out_h * out_w * out_c elements. epilogue == nullptr applies no
// activation. The allocating entry points run the same forward, so results
// are bit-identical to the Tensor-returning calls.
void conv2d_into(const float* input, const Shape& in_shape, const Tensor& weight,
                 const Tensor* bias, const Epilogue* epilogue, Padding padding, float* out,
                 std::int64_t stride = 1);

void conv2d_fp16_into(const fp16::Half* input, const Shape& in_shape,
                      const fp16::HalfTensor& weight, const Tensor* bias, const Epilogue& epilogue,
                      Padding padding, fp16::Half* out, std::int64_t stride = 1);

void conv2d_fp16_to_float_into(const fp16::Half* input, const Shape& in_shape,
                               const fp16::HalfTensor& weight, const Tensor* bias,
                               const Epilogue& epilogue, Padding padding, float* out,
                               std::int64_t stride = 1);

// conv2d through the zero-skipping GEMM kernel. Only worthwhile when the
// input is overwhelmingly zero — i.e. the padded identity probes Algorithm 1
// convolves to collapse a linear block; dense activations should use conv2d.
Tensor conv2d_zero_skip(const Tensor& input, const Tensor& weight, Padding padding,
                        std::int64_t stride = 1);

// d(loss)/d(input) given d(loss)/d(output).
Tensor conv2d_backward_input(const Tensor& grad_output, const Tensor& weight,
                             const Shape& input_shape, Padding padding, std::int64_t stride = 1);

// Accumulates d(loss)/d(weight) into grad_weight (same HWIO shape as weight).
void conv2d_backward_weight(const Tensor& input, const Tensor& grad_output, Tensor& grad_weight,
                            Padding padding, std::int64_t stride = 1);

// Same, with the bias gradient (column sums of grad_output) accumulated into
// grad_bias during the same striped pass — no second sweep over grad_output.
void conv2d_backward_weight_bias(const Tensor& input, const Tensor& grad_output,
                                 Tensor& grad_weight, Tensor& grad_bias, Padding padding,
                                 std::int64_t stride = 1);

// Reference direct convolution (no im2col); used only to validate the fast path.
Tensor conv2d_naive(const Tensor& input, const Tensor& weight, Padding padding,
                    std::int64_t stride = 1);

// Trainable convolution layer with optional bias.
class Conv2d final : public Layer {
 public:
  // Glorot-uniform initialized weight (the TF default the original SESR code
  // relies on; He gain compounds through residual stacks and destabilizes
  // deep configs); zero bias. `name` must be unique within a model.
  Conv2d(std::string name, std::int64_t kh, std::int64_t kw, std::int64_t in_c, std::int64_t out_c,
         Padding padding, bool with_bias, Rng& rng, std::int64_t stride = 1);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  bool has_bias() const { return bias_.has_value(); }
  Parameter& bias() { return *bias_; }

  std::int64_t kh() const { return weight_.value.shape().dim(0); }
  std::int64_t kw() const { return weight_.value.shape().dim(1); }
  std::int64_t in_channels() const { return weight_.value.shape().dim(2); }
  std::int64_t out_channels() const { return weight_.value.shape().dim(3); }
  Padding padding() const { return padding_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::string name_;
  Padding padding_;
  std::int64_t stride_;
  Parameter weight_;
  std::optional<Parameter> bias_;
  Tensor cached_input_;  // saved by forward(training=true)
};

}  // namespace sesr::nn
