#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "tensor/scratch.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {

namespace {
void check_weight(const Shape& w) {
  if (!w.valid()) throw std::invalid_argument("conv2d: invalid weight shape " + w.to_string());
}

void check_channels(const Shape& input, const Shape& w) {
  if (input.c() != w.dim(2)) {
    throw std::invalid_argument("conv2d: input channels " + std::to_string(input.c()) +
                                " != weight in_channels " + std::to_string(w.dim(2)));
  }
}

ConvGeometry conv_geometry_shape(const Shape& s, const Shape& w, Padding padding,
                                 std::int64_t stride) {
  check_weight(w);
  check_channels(s, w);
  const std::int64_t kh = w.dim(0);
  const std::int64_t kw = w.dim(1);
  if (padding == Padding::kSame) return same_geometry(s.h(), s.w(), s.c(), kh, kw, stride);
  if (stride != 1) throw std::invalid_argument("conv2d: VALID padding supports stride 1 only");
  return valid_geometry(s.h(), s.w(), s.c(), kh, kw);
}

// Output pixels per parallel stripe. Fixed — never derived from the worker
// count — so stripe boundaries, and with them every floating-point reduction
// order in the backward passes, are identical for any SESR_NUM_THREADS.
constexpr std::int64_t kStripePixels = 1024;

std::int64_t stripes_per_image(std::int64_t rows) {
  return (rows + kStripePixels - 1) / kStripePixels;
}

// One run of NHWC activations into an A row: fp32 is copied, binary16 widened.
void load_run(const float* src, float* dst, std::int64_t n) { std::copy(src, src + n, dst); }
void load_run(const fp16::Half* src, float* dst, std::int64_t n) {
  fp16::convert_to_float(src, dst, n);
}

// The A operand of one output stripe, for the GEMM's row producer.
template <typename T>
struct ConvRows {
  const T* img;  // base of batch image n
  const ConvGeometry* g;
  std::int64_t row0;  // first image-space im2col row of this stripe
};

// Implicit im2col: writes the k-slice [p0, p0+kc) of im2col row `row`
// (stripe-local; `row0` rebases it to the image row space) straight from the
// NHWC activations. The forward never builds a column matrix — lowering
// happens inside the GEMM's A-pack, so the largest intermediate of the
// explicit scheme (rows x kh*kw*c values, written by im2col and re-read by the
// pack) disappears. The values are those im2col_rows would store, so the
// packed panels, and with them the output bits, are the same.
template <typename T>
const float* im2col_row(const void* vctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                        float* buf) {
  const auto& s = *static_cast<const ConvRows<T>*>(vctx);
  const ConvGeometry& g = *s.g;
  const std::int64_t c = g.channels;
  const std::int64_t kwc = g.kw * c;
  const std::int64_t r = s.row0 + row;
  const std::int64_t oy = r / g.out_w;
  const std::int64_t ox = r % g.out_w;
  const std::int64_t iy0 = oy * g.stride - g.pad_top;
  const std::int64_t ix0 = ox * g.stride - g.pad_left;
  // Column q maps to kernel row (q / (kw*c)) and cell (q % (kw*c)); within one
  // kernel row, consecutive kx taps are adjacent in NHWC memory, so the whole
  // in-bounds cell range [lo, hi) loads as a single contiguous run with at
  // most one zero-fill on either side for the horizontal padding.
  const std::int64_t lo = std::max<std::int64_t>(0, -ix0) * c;
  const std::int64_t hi = (std::min(g.kw, g.in_w - ix0)) * c;
  float* dst = buf;
  std::int64_t q = p0;
  const std::int64_t q_end = p0 + kc;
  std::int64_t ky = q / kwc;
  std::int64_t cell = q - ky * kwc;
  while (q < q_end) {
    const std::int64_t len = std::min(kwc - cell, q_end - q);
    const std::int64_t iy = iy0 + ky;
    if (iy < 0 || iy >= g.in_h || hi <= lo) {
      std::fill(dst, dst + len, 0.0F);
    } else {
      const std::int64_t cut0 = std::clamp(lo, cell, cell + len);
      const std::int64_t cut1 = std::clamp(hi, cell, cell + len);
      std::fill(dst, dst + (cut0 - cell), 0.0F);
      load_run(s.img + (iy * g.in_w + ix0) * c + cut0, dst + (cut0 - cell), cut1 - cut0);
      std::fill(dst + (cut1 - cell), dst + len, 0.0F);
    }
    dst += len;
    q += len;
    ++ky;
    cell = 0;
  }
  return buf;
}

// 1x1 stride-1: im2col is the identity, so row r is input pixel r itself,
// read in place (fp32) or widened into buf (binary16).
template <typename T>
const float* pixel_row(const void* vctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                       float* buf) {
  const auto& s = *static_cast<const ConvRows<T>*>(vctx);
  const T* src = s.img + (s.row0 + row) * s.g->channels + p0;
  if constexpr (std::is_same_v<T, float>) {
    return src;
  } else {
    load_run(src, buf, kc);
    return buf;
  }
}

// The conv forward for fp32 (T = float) and binary16 (T = fp16::Half)
// storage. One flat index space over (image, stripe) gives batch parallelism
// and intra-image parallelism from the same loop, so N=1 deployment inference
// still uses the whole machine. Each stripe is one gemm_rows call with bias
// and activation fused into its store. Exactly one of out_f / out_h receives
// the result: out_f gets the fp32 accumulator stripes directly, out_h each
// stripe rounded to binary16 once. Input and output are raw NHWC images
// (in_shape describes `input`) so planner-owned arena slices work the same as
// Tensor storage; the Tensor entry points below allocate and delegate.
template <typename T>
void conv_forward(const T* input, const Shape& in_shape, const Shape& w_shape, const T* weight,
                  const Tensor* bias, const Epilogue& epi, Padding padding, std::int64_t stride,
                  float* out_f, fp16::Half* out_h) {
  const ConvGeometry g = conv_geometry_shape(in_shape, w_shape, padding, stride);
  const std::int64_t out_c = w_shape.dim(3);
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d: bias numel must equal out_channels");
  }
  const Shape out_shape(in_shape.n(), g.out_h, g.out_w, out_c);
  const std::span<const T> wspan(weight, static_cast<std::size_t>(w_shape.numel()));
  const std::span<const float> bspan =
      bias != nullptr ? std::span<const float>{bias->raw(), static_cast<std::size_t>(out_c)}
                      : std::span<const float>{};
  const RowSource rows_of =
      g.kh == 1 && g.kw == 1 && g.stride == 1 ? pixel_row<T> : im2col_row<T>;
  const std::int64_t sc = stripes_per_image(g.rows());
  ThreadPool::global().parallel_for(0, in_shape.n() * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t rows = std::min(r0 + kStripePixels, g.rows()) - r0;
    const std::int64_t base = out_shape.offset(n, 0, 0, 0) + r0 * out_c;
    const std::size_t len = static_cast<std::size_t>(rows * out_c);
    const std::span<float> dst = out_f != nullptr
                                     ? std::span<float>{out_f + base, len}
                                     : scratch_floats(ScratchSlot::kF16OutStripe, len);
    const ConvRows<T> src{input + in_shape.offset(n, 0, 0, 0), &g, r0};
    gemm_rows(rows_of, &src, wspan, bspan, dst, rows, g.cols(), out_c, epi);
    if (out_h != nullptr) fp16::convert_to_half(dst.data(), out_h + base, rows * out_c);
  });
}

Tensor conv2d_alloc(const Tensor& input, const Tensor& weight, const Tensor* bias,
                    const Epilogue& epi, Padding padding, std::int64_t stride) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv_forward(input.raw(), input.shape(), weight.shape(), weight.raw(), bias, epi, padding,
               stride, out.raw(), nullptr);
  return out;
}
}  // namespace

ConvGeometry conv_geometry(const Tensor& input, const Tensor& weight, Padding padding,
                           std::int64_t stride) {
  return conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
}

Tensor conv2d(const Tensor& input, const Tensor& weight, Padding padding, std::int64_t stride) {
  return conv2d_alloc(input, weight, nullptr, Epilogue{}, padding, stride);
}

Tensor conv2d_zero_skip(const Tensor& input, const Tensor& weight, Padding padding,
                        std::int64_t stride) {
  // Explicit im2col and the zero-skipping kernel: the Algorithm-1 identity
  // probes are mostly zeros, and these bits become the collapsed weights.
  const ConvGeometry g = conv_geometry(input, weight, padding, stride);
  const std::int64_t out_c = weight.shape().dim(3);
  Tensor out(input.shape().n(), g.out_h, g.out_w, out_c);
  const std::int64_t sc = stripes_per_image(g.rows());
  ThreadPool::global().parallel_for(0, input.shape().n() * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t r1 = std::min(r0 + kStripePixels, g.rows());
    const std::int64_t rows = r1 - r0;
    std::span<float> cols =
        scratch_floats(ScratchSlot::kIm2col, static_cast<std::size_t>(rows * g.cols()));
    im2col_rows(input, n, g, r0, r1, cols.data());
    std::span<float> dst(out.raw() + out.shape().offset(n, 0, 0, 0) + r0 * out_c,
                         static_cast<std::size_t>(rows * out_c));
    gemm_zero_skip(cols, weight.data(), dst, rows, g.cols(), out_c);
  });
  return out;
}

Tensor conv2d_bias(const Tensor& input, const Tensor& weight, const Tensor& bias, Padding padding,
                   std::int64_t stride) {
  return conv2d_alloc(input, weight, &bias, Epilogue{}, padding, stride);
}

Tensor conv2d_fused(const Tensor& input, const Tensor& weight, const Tensor* bias,
                    const Epilogue& epilogue, Padding padding, std::int64_t stride) {
  return conv2d_alloc(input, weight, bias, epilogue, padding, stride);
}

void conv2d_into(const float* input, const Shape& in_shape, const Tensor& weight,
                 const Tensor* bias, const Epilogue* epilogue, Padding padding, float* out,
                 std::int64_t stride) {
  conv_forward(input, in_shape, weight.shape(), weight.raw(), bias,
               epilogue != nullptr ? *epilogue : Epilogue{}, padding, stride, out, nullptr);
}

fp16::HalfTensor conv2d_fp16(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                             const Tensor* bias, const Epilogue& epilogue, Padding padding,
                             std::int64_t stride) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  fp16::HalfTensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv2d_fp16_into(input.raw(), input.shape(), weight, bias, epilogue, padding, out.raw(), stride);
  return out;
}

Tensor conv2d_fp16_to_float(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                            const Tensor* bias, const Epilogue& epilogue, Padding padding,
                            std::int64_t stride) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv2d_fp16_to_float_into(input.raw(), input.shape(), weight, bias, epilogue, padding,
                            out.raw(), stride);
  return out;
}

void conv2d_fp16_into(const fp16::Half* input, const Shape& in_shape,
                      const fp16::HalfTensor& weight, const Tensor* bias, const Epilogue& epilogue,
                      Padding padding, fp16::Half* out, std::int64_t stride) {
  conv_forward(input, in_shape, weight.shape(), weight.raw(), bias, epilogue, padding, stride,
               nullptr, out);
}

void conv2d_fp16_to_float_into(const fp16::Half* input, const Shape& in_shape,
                               const fp16::HalfTensor& weight, const Tensor* bias,
                               const Epilogue& epilogue, Padding padding, float* out,
                               std::int64_t stride) {
  conv_forward(input, in_shape, weight.shape(), weight.raw(), bias, epilogue, padding, stride, out,
               nullptr);
}

Tensor conv2d_backward_input(const Tensor& grad_output, const Tensor& weight,
                             const Shape& input_shape, Padding padding, std::int64_t stride) {
  check_weight(weight.shape());
  const std::int64_t out_c = weight.shape().dim(3);
  if (grad_output.shape().c() != out_c) {
    throw std::invalid_argument("conv2d_backward_input: grad_output channels mismatch");
  }
  const ConvGeometry g = conv_geometry_shape(input_shape, weight.shape(), padding, stride);
  if (g.out_h != grad_output.shape().h() || g.out_w != grad_output.shape().w()) {
    throw std::invalid_argument("conv2d_backward_input: grad_output spatial dims mismatch");
  }
  Tensor grad_input(input_shape);
  ThreadPool& pool = ThreadPool::global();
  std::span<float> cols =
      scratch_floats(ScratchSlot::kConvCols, static_cast<std::size_t>(g.rows() * g.cols()));
  // Stripe the scatter over disjoint *input* row bands; each band receives
  // contributions in the same order as a serial col2im, so the result does not
  // depend on the thread count.
  const std::int64_t grain_y =
      std::max<std::int64_t>(1, kStripePixels / std::max<std::int64_t>(1, g.in_w));
  for (std::int64_t n = 0; n < input_shape.n(); ++n) {
    const float* go_base = grad_output.raw() + grad_output.shape().offset(n, 0, 0, 0);
    // cols = grad_out [rows x out_c] * weight^T [out_c x (kh*kw*cin)], striped
    // over output rows (disjoint writes).
    pool.parallel_for_chunks(0, g.rows(), kStripePixels, [&](std::int64_t lo, std::int64_t hi) {
      const std::int64_t rows = hi - lo;
      std::span<const float> go(go_base + lo * out_c, static_cast<std::size_t>(rows * out_c));
      std::span<float> dst(cols.data() + lo * g.cols(),
                           static_cast<std::size_t>(rows * g.cols()));
      gemm_a_bt(go, weight.data(), dst, rows, out_c, g.cols());
    });
    pool.parallel_for_chunks(0, g.in_h, grain_y, [&](std::int64_t y0, std::int64_t y1) {
      col2im_add_rows(cols.data(), g, grad_input, n, y0, y1);
    });
  }
  return grad_input;
}

namespace {
void backward_weight_impl(const Tensor& input, const Tensor& grad_output, Tensor& grad_weight,
                          float* grad_bias, Padding padding, std::int64_t stride) {
  const ConvGeometry g = conv_geometry(input, grad_weight, padding, stride);
  const std::int64_t out_c = grad_weight.shape().dim(3);
  if (grad_output.shape().h() != g.out_h || grad_output.shape().w() != g.out_w ||
      grad_output.shape().c() != out_c || grad_output.shape().n() != input.shape().n()) {
    throw std::invalid_argument("conv2d_backward_weight: grad_output shape mismatch");
  }
  const std::int64_t sc = stripes_per_image(g.rows());
  const std::int64_t total = input.shape().n() * sc;
  const std::int64_t wn = grad_weight.numel();
  // Per-stripe partial accumulators (weight grad + fused bias grad), reduced
  // below in fixed stripe order so the sum is bit-identical for any thread
  // count. The arena buffer is caller-owned; workers only write their slice.
  const std::int64_t slice = wn + (grad_bias != nullptr ? out_c : 0);
  std::span<float> partials =
      scratch_floats(ScratchSlot::kGradPartial, static_cast<std::size_t>(total * slice));
  std::fill(partials.begin(), partials.end(), 0.0F);
  ThreadPool::global().parallel_for(0, total, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t r1 = std::min(r0 + kStripePixels, g.rows());
    const std::int64_t rows = r1 - r0;
    std::span<float> cols =
        scratch_floats(ScratchSlot::kIm2col, static_cast<std::size_t>(rows * g.cols()));
    im2col_rows(input, n, g, r0, r1, cols.data());
    std::span<const float> go(grad_output.raw() + grad_output.shape().offset(n, 0, 0, 0) +
                                  r0 * out_c,
                              static_cast<std::size_t>(rows * out_c));
    float* pw = partials.data() + idx * slice;
    // partial grad_w [(kh*kw*cin) x out_c] += cols^T * grad_out
    gemm_at_b_accumulate(cols, go, {pw, static_cast<std::size_t>(wn)}, g.cols(), rows, out_c);
    if (grad_bias != nullptr) {
      float* pb = pw + wn;
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t c = 0; c < out_c; ++c) pb[c] += go[i * out_c + c];
      }
    }
  });
  float* gw = grad_weight.raw();
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const float* pw = partials.data() + idx * slice;
    for (std::int64_t i = 0; i < wn; ++i) gw[i] += pw[i];
    if (grad_bias != nullptr) {
      for (std::int64_t c = 0; c < out_c; ++c) grad_bias[c] += pw[wn + c];
    }
  }
}
}  // namespace

void conv2d_backward_weight(const Tensor& input, const Tensor& grad_output, Tensor& grad_weight,
                            Padding padding, std::int64_t stride) {
  backward_weight_impl(input, grad_output, grad_weight, nullptr, padding, stride);
}

void conv2d_backward_weight_bias(const Tensor& input, const Tensor& grad_output,
                                 Tensor& grad_weight, Tensor& grad_bias, Padding padding,
                                 std::int64_t stride) {
  if (grad_bias.numel() != grad_weight.shape().dim(3)) {
    throw std::invalid_argument("conv2d_backward_weight_bias: bias grad numel mismatch");
  }
  backward_weight_impl(input, grad_output, grad_weight, grad_bias.raw(), padding, stride);
}

Tensor conv2d_naive(const Tensor& input, const Tensor& weight, Padding padding,
                    std::int64_t stride) {
  const ConvGeometry g = conv_geometry(input, weight, padding, stride);
  const Shape& s = input.shape();
  const std::int64_t out_c = weight.shape().dim(3);
  Tensor out(s.n(), g.out_h, g.out_w, out_c);
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          double acc = 0.0;
          for (std::int64_t ky = 0; ky < g.kh; ++ky) {
            const std::int64_t iy = oy * g.stride - g.pad_top + ky;
            if (iy < 0 || iy >= s.h()) continue;
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              const std::int64_t ix = ox * g.stride - g.pad_left + kx;
              if (ix < 0 || ix >= s.w()) continue;
              for (std::int64_t ic = 0; ic < s.c(); ++ic) {
                acc += static_cast<double>(input(n, iy, ix, ic)) * weight(ky, kx, ic, oc);
              }
            }
          }
          out(n, oy, ox, oc) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Conv2d::Conv2d(std::string name, std::int64_t kh, std::int64_t kw, std::int64_t in_c,
               std::int64_t out_c, Padding padding, bool with_bias, Rng& rng, std::int64_t stride)
    : name_(std::move(name)),
      padding_(padding),
      stride_(stride),
      weight_(name_ + ".weight", glorot_uniform_kernel(kh, kw, in_c, out_c, rng)) {
  if (with_bias) bias_.emplace(name_ + ".bias", Tensor(1, 1, 1, out_c));
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  if (bias_) return conv2d_bias(input, weight_.value, bias_->value, padding_, stride_);
  return conv2d(input, weight_.value, padding_, stride_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward called without forward(training=true)");
  }
  if (bias_) {
    // Bias grad rides on the same striped pass as the weight grad instead of a
    // second sweep over grad_output.
    conv2d_backward_weight_bias(cached_input_, grad_output, weight_.grad, bias_->grad, padding_,
                                stride_);
  } else {
    conv2d_backward_weight(cached_input_, grad_output, weight_.grad, padding_, stride_);
  }
  return conv2d_backward_input(grad_output, weight_.value, cached_input_.shape(), padding_,
                               stride_);
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (bias_) out.push_back(&*bias_);
  return out;
}

}  // namespace sesr::nn
