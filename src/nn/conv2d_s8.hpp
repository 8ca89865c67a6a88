// Quantized convolution for the int8 serving path.
//
// Weights are quantized once per tensor (symmetric, per-output-channel) and
// packed for the micro-kernels into an S8ConvWeights bundle; activations stay
// fp32 between layers (the "fp32 carrier"). Each layer quantizes its input
// once, with a calibrated per-tensor scale, into a zero-point-padded u8 image
// (border and trailing slack = 128, the quantized zero), and the micro-kernels
// read their im2col rows in place from that image (see gemm_s8.hpp) — no
// im2col matrix or packed A panel is ever built. The fused dequant -> bias ->
// activation epilogue writes fp32 output directly, so a quantized layer is a
// drop-in replacement for conv2d_fused.
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

// out = act(dequant(conv_s8(quant(input), weight)) + bias): fp32 NHWC in,
// fp32 NHWC out. `act_scale` is the calibrated per-tensor activation scale
// (input quantizes as clamp(round(v/act_scale)), NaN to the zero point;
// padding contributes the exact zero point). Bias may be null. Stride is 1;
// geometry rules match conv2d.
Tensor conv2d_s8(const Tensor& input, float act_scale, const S8ConvWeights& weight,
                 const Tensor* bias, const Epilogue& epilogue, Padding padding);

// Output-span form for the execution-plan path: raw NHWC in/out in
// caller-provided storage (see conv2d_into). Same kernels — bit-identical to
// conv2d_s8. The zero-point-padded quantized image and the per-channel
// dequant factors live in scratch slots (kS8Quant / kS8Dequant), so
// steady-state int8 layers allocate nothing.
void conv2d_s8_into(const float* input, const Shape& in_shape, float act_scale,
                    const S8ConvWeights& weight, const Tensor* bias, const Epilogue& epilogue,
                    Padding padding, float* out);

}  // namespace sesr::nn
