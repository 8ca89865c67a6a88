#include "nn/im2col.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesr::nn {

ConvGeometry same_geometry(std::int64_t in_h, std::int64_t in_w, std::int64_t channels,
                           std::int64_t kh, std::int64_t kw, std::int64_t stride) {
  if (in_h < 1 || in_w < 1 || channels < 1 || kh < 1 || kw < 1 || stride < 1) {
    throw std::invalid_argument("same_geometry: all dimensions must be positive");
  }
  ConvGeometry g;
  g.in_h = in_h;
  g.in_w = in_w;
  g.channels = channels;
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.out_h = (in_h + stride - 1) / stride;
  g.out_w = (in_w + stride - 1) / stride;
  // TF SAME rule: total padding so that windows cover the input; extra padding
  // (for even kernels) goes on the bottom/right.
  const std::int64_t pad_h = std::max<std::int64_t>(0, (g.out_h - 1) * stride + kh - in_h);
  const std::int64_t pad_w = std::max<std::int64_t>(0, (g.out_w - 1) * stride + kw - in_w);
  g.pad_top = pad_h / 2;
  g.pad_left = pad_w / 2;
  return g;
}

ConvGeometry valid_geometry(std::int64_t in_h, std::int64_t in_w, std::int64_t channels,
                            std::int64_t kh, std::int64_t kw) {
  if (in_h < kh || in_w < kw || channels < 1 || kh < 1 || kw < 1) {
    throw std::invalid_argument("valid_geometry: input smaller than kernel");
  }
  ConvGeometry g;
  g.in_h = in_h;
  g.in_w = in_w;
  g.channels = channels;
  g.kh = kh;
  g.kw = kw;
  g.stride = 1;
  g.pad_top = 0;
  g.pad_left = 0;
  g.out_h = in_h - kh + 1;
  g.out_w = in_w - kw + 1;
  return g;
}

void im2col(const Tensor& input, std::int64_t n, const ConvGeometry& g, float* cols) {
  im2col_rows(input, n, g, 0, g.rows(), cols);
}

void im2col_rows(const Tensor& input, std::int64_t n, const ConvGeometry& g,
                 std::int64_t row_begin, std::int64_t row_end, float* cols) {
  const Shape& s = input.shape();
  if (s.h() != g.in_h || s.w() != g.in_w || s.c() != g.channels) {
    throw std::invalid_argument("im2col: tensor shape does not match geometry");
  }
  if (row_begin < 0 || row_end > g.rows() || row_begin > row_end) {
    throw std::invalid_argument("im2col_rows: row range out of bounds");
  }
  const float* image = input.raw() + s.offset(n, 0, 0, 0);
  const std::int64_t c = g.channels;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const std::int64_t oy = r / g.out_w;
    const std::int64_t ox = r % g.out_w;
    float* row = cols + (r - row_begin) * g.cols();
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      const std::int64_t iy = oy * g.stride - g.pad_top + ky;
      float* dst = row + ky * g.kw * c;
      if (iy < 0 || iy >= g.in_h) {
        std::fill(dst, dst + g.kw * c, 0.0F);
        continue;
      }
      for (std::int64_t kx = 0; kx < g.kw; ++kx) {
        const std::int64_t ix = ox * g.stride - g.pad_left + kx;
        if (ix < 0 || ix >= g.in_w) {
          std::fill(dst + kx * c, dst + (kx + 1) * c, 0.0F);
        } else {
          const float* src = image + (iy * g.in_w + ix) * c;
          std::copy(src, src + c, dst + kx * c);
        }
      }
    }
  }
}

void col2im_add(const float* cols, const ConvGeometry& g, Tensor& grad_input, std::int64_t n) {
  col2im_add_rows(cols, g, grad_input, n, 0, g.in_h);
}

void col2im_add_rows(const float* cols, const ConvGeometry& g, Tensor& grad_input, std::int64_t n,
                     std::int64_t y_begin, std::int64_t y_end) {
  const Shape& s = grad_input.shape();
  if (s.h() != g.in_h || s.w() != g.in_w || s.c() != g.channels) {
    throw std::invalid_argument("col2im_add: tensor shape does not match geometry");
  }
  if (y_begin < 0 || y_end > g.in_h || y_begin > y_end) {
    throw std::invalid_argument("col2im_add_rows: input row range out of bounds");
  }
  const std::int64_t c = g.channels;
  // Only output rows whose kh-tall receptive field intersects [y_begin, y_end)
  // can contribute: oy*stride - pad_top + ky in range for some ky in [0, kh).
  const std::int64_t oy_lo =
      std::max<std::int64_t>(0, (y_begin + g.pad_top - g.kh + g.stride) / g.stride);
  const std::int64_t oy_hi = std::min(g.out_h - 1, (y_end - 1 + g.pad_top) / g.stride);
  for (std::int64_t oy = oy_lo; oy <= oy_hi; ++oy) {
    for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
      const float* row = cols + (oy * g.out_w + ox) * g.cols();
      for (std::int64_t ky = 0; ky < g.kh; ++ky) {
        const std::int64_t iy = oy * g.stride - g.pad_top + ky;
        if (iy < y_begin || iy >= y_end) continue;
        for (std::int64_t kx = 0; kx < g.kw; ++kx) {
          const std::int64_t ix = ox * g.stride - g.pad_left + kx;
          if (ix < 0 || ix >= g.in_w) continue;
          const float* src = row + (ky * g.kw + kx) * c;
          float* dst = grad_input.raw() + s.offset(n, iy, ix, 0);
          for (std::int64_t ch = 0; ch < c; ++ch) dst[ch] += src[ch];
        }
      }
    }
  }
}

}  // namespace sesr::nn
