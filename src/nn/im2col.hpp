// im2col / col2im lowering for convolution.
//
// For one image (1, H, W, C) and a kh x kw window with stride and zero padding,
// im2col produces a row-major matrix of shape
//   [out_h * out_w, kh * kw * C]
// where each row is the flattened receptive field of one output pixel, in
// (ky, kx, c) order — the same order in which HWIO kernels flatten, so a single
// GEMM against the [kh*kw*C, out_c] weight matrix computes the convolution.
// col2im is its adjoint (scatter-add), used for input gradients.
#pragma once

#include <cstdint>

#include "tensor/fp16.hpp"
#include "tensor/tensor.hpp"

namespace sesr::nn {

struct ConvGeometry {
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t channels = 0;
  std::int64_t kh = 0;
  std::int64_t kw = 0;
  std::int64_t stride = 1;
  std::int64_t pad_top = 0;
  std::int64_t pad_left = 0;
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;

  std::int64_t rows() const { return out_h * out_w; }
  std::int64_t cols() const { return kh * kw * channels; }
};

// Geometry for SAME padding (output spatial dims = ceil(in / stride); for the
// stride-1 case used throughout SESR, output == input and asymmetric/even
// kernels pad more on the bottom/right, matching TF convention).
ConvGeometry same_geometry(std::int64_t in_h, std::int64_t in_w, std::int64_t channels,
                           std::int64_t kh, std::int64_t kw, std::int64_t stride = 1);

// Geometry for VALID padding (no padding; output = in - k + 1, stride 1 only).
ConvGeometry valid_geometry(std::int64_t in_h, std::int64_t in_w, std::int64_t channels,
                            std::int64_t kh, std::int64_t kw);

// Lower batch image n of `input` into `cols` (must hold rows()*cols() floats).
void im2col(const Tensor& input, std::int64_t n, const ConvGeometry& g, float* cols);

// Stripe form: lowers only output rows [row_begin, row_end) (row = oy*out_w+ox)
// into `cols`, which must hold (row_end - row_begin) * cols() floats. This is
// the unit of intra-image parallelism: each stripe is independent, so N=1
// inference scales across cores by splitting the row space.
void im2col_rows(const Tensor& input, std::int64_t n, const ConvGeometry& g,
                 std::int64_t row_begin, std::int64_t row_end, float* cols);

// Adjoint: scatter-add `cols` back into batch image n of `grad_input`.
void col2im_add(const float* cols, const ConvGeometry& g, Tensor& grad_input, std::int64_t n);

// Stripe form of the adjoint, partitioned over *input* rows: only input rows
// iy in [y_begin, y_end) receive contributions. Disjoint ranges touch disjoint
// elements, and for each element the contributions arrive in the same order as
// the full col2im_add, so a fixed partition yields bit-identical results for
// any thread count. `cols` is the full rows()*cols() matrix.
void col2im_add_rows(const float* cols, const ConvGeometry& g, Tensor& grad_input, std::int64_t n,
                     std::int64_t y_begin, std::int64_t y_end);

}  // namespace sesr::nn
