// Quantized convolution for the int8 serving path.
//
// Weights are quantized once per tensor (symmetric, per-output-channel) and
// packed for the micro-kernels into an S8ConvWeights bundle. A layer reads
// its input as a zero-point-padded u8 image (S8ImageLayout: border and
// trailing slack = 128, the quantized zero), and the micro-kernels read their
// im2col rows in place from that image (see gemm_s8.hpp) — no im2col matrix
// or packed A panel is ever built. The image comes from one of two places:
//   - conv2d_s8_into quantizes an fp32 input once, with the layer's
//     calibrated per-tensor scale (the "fp32 carrier": conv2d_s8, the direct
//     int8 path, and an execution plan's first int8 conv);
//   - the previous int8 conv wrote it (the "u8 carrier"): its epilogue
//     requantized every output value with this layer's scale straight into
//     the image's interior and wrote the border, so no fp32 tensor and no
//     quantize pass sit between the two layers (conv2d_s8_image_into with an
//     S8ConvOutput::u8 target; the execution plan binds it, see
//     core/plan/execution_plan.hpp).
// The fused dequant -> bias -> activation (-> residual) epilogue writes fp32
// or those u8 bytes directly, so a quantized layer on the fp32 carrier is a
// drop-in replacement for conv2d_fused, and the u8 carrier is bit-identical
// to it: requantizing in registers computes exactly what the next layer's
// quantize pass would have computed from the stored fp32 values.
//
// Exactness contract: for a fixed activation scale, quantization is
// elementwise and padding quantizes to the zero point, so cropping commutes
// with the whole layer — tiled execution reproduces full-frame int8 results
// bit-exactly (the int32 accumulator is order-independent and the dequant
// store is a fixed single-rounded expression; see gemm_s8.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm_s8.hpp"
#include "tensor/tensor.hpp"

namespace sesr::nn {

// A conv weight tensor quantized for the u8 x s8 kernels. `values` keeps the
// HWIO flat order (the [kh*kw*in_c x out_c] row-major im2col B matrix, which
// the references in src/check read); `packed` is the same matrix in the
// micro-kernels' layout; `scale` holds one symmetric dequantization factor
// per output channel and `colsum` the per-column sums the kernel uses to
// remove the +128 activation offset.
struct S8ConvWeights {
  Shape shape;                         // HWIO, same as the source tensor
  std::vector<std::int8_t> values;
  std::vector<float> scale;            // out_c entries: max|w|/127 (floored)
  std::vector<std::int32_t> colsum;    // out_c entries
  S8PackedWeights packed;              // values, packed once by pack_s8_weights
};

// Symmetric per-output-channel quantization: scale[oc] = max|w[..., oc]|/127,
// floored at kDegenerateQuantScale for all-zero channels; every value rounds
// through nn::quantize_value. Deterministic, so replicas that quantize the
// same checkpoint hold bit-identical weights.
S8ConvWeights quantize_conv_weights(const Tensor& weight);

// The zero-point-padded u8 image an int8 conv reads, per batch item: the
// h x w x c activation sits at row `top`, pixel `left` of a pad_h x pad_w
// frame whose other bytes are 128, the quantized zero. A batch's images are
// contiguous and `slack` bytes (s8_image_slack: what a kernel may read past
// the last k-run) follow the last one.
struct S8ImageLayout {
  std::int64_t h = 0;
  std::int64_t w = 0;
  std::int64_t c = 0;
  std::int64_t top = 0;
  std::int64_t left = 0;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t slack = 0;
  std::int64_t row_bytes() const { return pad_w * c; }
  std::int64_t image_bytes() const { return pad_h * row_bytes(); }
  std::int64_t bytes(std::int64_t batch) const { return batch * image_bytes() + slack; }
};

// The image `weight` reads an h x w input through under `padding` (the
// channel count is the weight's).
S8ImageLayout s8_image_layout(std::int64_t h, std::int64_t w, const S8ConvWeights& weight,
                              Padding padding);

// Where an int8 conv stores its output: fp32 NHWC at `f32`, or requantized
// with the next int8 conv's activation scale into the interior of that
// conv's image at `u8` (layout `u8_layout`, whose h x w x c must be this
// conv's output shape). The u8 form also writes the image's 128 border and
// slack, on every call: arena bytes are shared by other plans and values, so
// nothing outside the interior is assumed to survive. `residual` (fp32 NHWC
// in the output's shape, or nullptr) is added after the activation.
struct S8ConvOutput {
  float* f32 = nullptr;
  std::uint8_t* u8 = nullptr;
  S8ImageLayout u8_layout;
  float u8_act_scale = 0.0F;
  const float* residual = nullptr;
};

// out = act(dequant(conv_s8(quant(input), weight)) + bias): fp32 NHWC in,
// fp32 NHWC out. `act_scale` is the calibrated per-tensor activation scale
// (input quantizes as clamp(round(v/act_scale)), NaN to the zero point;
// padding contributes the exact zero point). Bias may be null. Stride is 1;
// geometry rules match conv2d.
Tensor conv2d_s8(const Tensor& input, float act_scale, const S8ConvWeights& weight,
                 const Tensor* bias, const Epilogue& epilogue, Padding padding);

// Output-span form for the execution-plan path: raw fp32 NHWC input in
// caller-provided storage (see conv2d_into), output as `out` names. Same
// kernels — bit-identical to conv2d_s8. The zero-point-padded quantized image
// and the per-channel dequant factors live in scratch slots (kS8Quant /
// kS8Dequant), so steady-state int8 layers allocate nothing.
void conv2d_s8_into(const float* input, const Shape& in_shape, float act_scale,
                    const S8ConvWeights& weight, const Tensor* bias, const Epilogue& epilogue,
                    Padding padding, const S8ConvOutput& out);

// Quantizes a batch of fp32 NHWC inputs (layout.h x layout.w x layout.c
// each) into `image` (layout.bytes(batch) bytes): interiors quantize_value(v,
// 1 / act_scale) + 128, every other byte 128.
void quantize_s8_image(const float* input, std::int64_t batch, const S8ImageLayout& layout,
                       float act_scale, std::uint8_t* image);

// The conv of an image already in `layout` (quantized with `act_scale`, by
// quantize_s8_image or by the previous conv's u8 output), stride 1, output
// (pad_h - kh + 1) x (pad_w - kw + 1) x out_c per batch item.
void conv2d_s8_image_into(const std::uint8_t* image, const S8ImageLayout& layout,
                          std::int64_t batch, float act_scale, const S8ConvWeights& weight,
                          const Tensor* bias, const Epilogue& epilogue, const S8ConvOutput& out);

}  // namespace sesr::nn
