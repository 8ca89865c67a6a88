// Double-precision reference implementations for the numerical audit.
//
// Every function here recomputes an optimized operation in the most
// straightforward way possible — direct loops, double accumulation, no
// blocking, no SIMD, no shared code with the fast path beyond geometry
// helpers. They are deliberately slow: their only job is to be obviously
// correct so the audit (src/check/audits.cpp) can measure how far each
// optimized kernel drifts from exact arithmetic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sesr_inference.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/im2col.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace sesr::check {

// Double-precision NHWC tensor, used where references chain (the collapse
// audit convolves through a multi-layer pipeline without rounding between
// layers).
struct DTensor {
  Shape shape{0, 0, 0, 0};
  std::vector<double> data;

  DTensor() = default;
  explicit DTensor(const Shape& s)
      : shape(s), data(static_cast<std::size_t>(s.numel()), 0.0) {}

  double& operator()(std::int64_t n, std::int64_t y, std::int64_t x, std::int64_t c) {
    return data[static_cast<std::size_t>(shape.offset(n, y, x, c))];
  }
  double operator()(std::int64_t n, std::int64_t y, std::int64_t x, std::int64_t c) const {
    return data[static_cast<std::size_t>(shape.offset(n, y, x, c))];
  }
};

DTensor to_dtensor(const Tensor& t);

// c[m x n] = a[m x k] * b[k x n], row-major, double accumulation.
std::vector<double> ref_gemm(std::span<const float> a, std::span<const float> b, std::int64_t m,
                             std::int64_t k, std::int64_t n);

// Direct convolution under an explicit geometry (covers SAME/VALID and any
// stride); weight is HWIO. The batch dimension comes from `input`.
DTensor ref_conv2d(const DTensor& input, const Tensor& weight, const nn::ConvGeometry& g);
DTensor ref_conv2d(const Tensor& input, const Tensor& weight, const nn::ConvGeometry& g);

// TF-semantics pixel shuffle: out[n, y*r+dy, x*r+dx, c] = in[n, y, x, (dy*r+dx)*C + c].
DTensor ref_depth_to_space(const DTensor& input, std::int64_t block);

// MATLAB-convention bicubic (Keys a = -0.5, pixel centers, symmetric mirror
// boundary, antialiasing on downscale) evaluated separably in full double —
// independent of data::resize_bicubic's tap tables.
DTensor ref_resize_bicubic(const Tensor& input, std::int64_t out_h, std::int64_t out_w);

// PSNR with the same convention as metrics::psnr (identical images cap at
// 100 dB) but Kahan-summed MSE.
double ref_psnr(const Tensor& a, const Tensor& b);

// SSIM via the cancellation-free two-pass form: mu first, then
// var = sum w * (x - mu)^2 and cov = sum w * (x - mu_a) * (y - mu_b).
// Matches metrics::ssim's window (11x11 gaussian, sigma 1.5, k1/k2 .01/.03).
double ref_ssim(const Tensor& a, const Tensor& b);

// u8 (offset-binary, zero point 128) x s8 GEMM reference: exact int64
// accumulation of (a - 128) * b, row-major. Throws std::overflow_error when
// any accumulator leaves int32 range — the width the packed gemm_s8 kernels
// report — so the audit distinguishes kernel bugs from too-narrow shapes.
std::vector<std::int32_t> ref_gemm_s8_i32(std::span<const std::uint8_t> a,
                                          std::span<const std::int8_t> b, std::int64_t m,
                                          std::int64_t k, std::int64_t n);

// Serving-path int8 conv reference (SAME, stride 1): quantizes `input` with
// nn::quantize_value at the fixed activation scale, accumulates s8 x s8 in
// int64 (int32-range checked), then applies the dequant -> bias -> activation
// epilogue with the exact expressions the fused GEMM store uses (per-channel
// single-rounded dequant product, fmaf, f > 0 ? f : alpha * f). Expected to
// match nn::conv2d_s8 bit for bit — this pair pins the serving path to the
// int64 reference at the int32-accumulator level.
Tensor ref_conv2d_s8(const Tensor& input, float act_scale, const nn::S8ConvWeights& weight,
                     const Tensor* bias, const nn::Epilogue& epilogue);

// Bit-accurate replay of a calibrated SesrInference at kInt8, built from its
// public state (s8_weights(), activation_scales(), convolutions() biases,
// activation_epilogue()): every layer runs ref_conv2d_s8, and the float glue
// (long skip add, input residual, pixel shuffle) is recomputed in the same
// order as the served path. Expected to match upscale() at kInt8 bit for bit.
Tensor ref_int8_upscale(const core::SesrInference& net, const Tensor& input);

}  // namespace sesr::check
