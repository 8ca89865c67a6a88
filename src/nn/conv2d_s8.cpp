#include "nn/conv2d_s8.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/scratch.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {

namespace {

// Offset-binary zero point: quantized 0 stored as u8 (0 + 128).
constexpr std::uint8_t kQuantZero = 128;

// Output pixels per parallel task, as in conv2d.cpp; int8 tasks are whole
// output rows (ceil(kStripePixels / out_w) of them) so every micro-tile runs
// along one row.
constexpr std::int64_t kStripePixels = 1024;

// Input elements quantized per parallel task.
constexpr std::int64_t kQuantChunk = 1 << 16;

ConvGeometry conv_geometry_s8(const Shape& in_s, const Shape& w_s, Padding padding) {
  if (!w_s.valid()) {
    throw std::invalid_argument("conv2d_s8: invalid weight shape " + w_s.to_string());
  }
  if (in_s.c() != w_s.dim(2)) {
    throw std::invalid_argument("conv2d_s8: input channels " + std::to_string(in_s.c()) +
                                " != weight in_channels " + std::to_string(w_s.dim(2)));
  }
  const std::int64_t kh = w_s.dim(0);
  const std::int64_t kw = w_s.dim(1);
  if (padding == Padding::kSame) return same_geometry(in_s.h(), in_s.w(), in_s.c(), kh, kw, 1);
  return valid_geometry(in_s.h(), in_s.w(), in_s.c(), kh, kw);
}

}  // namespace

S8ConvWeights quantize_conv_weights(const Tensor& weight) {
  if (!weight.shape().valid()) {
    throw std::invalid_argument("quantize_conv_weights: invalid weight shape " +
                                weight.shape().to_string());
  }
  const std::int64_t out_c = weight.shape().dim(3);
  const std::int64_t k = weight.numel() / out_c;  // kh * kw * in_c
  S8ConvWeights q;
  q.shape = weight.shape();
  q.values.resize(static_cast<std::size_t>(weight.numel()));
  q.scale.resize(static_cast<std::size_t>(out_c));
  const float* w = weight.raw();
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    float max_abs = 0.0F;
    for (std::int64_t i = 0; i < k; ++i) {
      max_abs = std::max(max_abs, std::fabs(w[i * out_c + oc]));
    }
    const float scale = max_abs > 0.0F ? max_abs / 127.0F : kDegenerateQuantScale;
    q.scale[static_cast<std::size_t>(oc)] = scale;
    const float inv = 1.0F / scale;
    for (std::int64_t i = 0; i < k; ++i) {
      q.values[static_cast<std::size_t>(i * out_c + oc)] = quantize_value(w[i * out_c + oc], inv);
    }
  }
  q.colsum = s8_column_sums({q.values.data(), q.values.size()}, k, out_c);
  q.packed = pack_s8_weights({q.values.data(), q.values.size()}, q.shape.dim(0),
                             q.shape.dim(1) * q.shape.dim(2), out_c);
  return q;
}

void conv2d_s8_into(const float* input, const Shape& in_shape, float act_scale,
                    const S8ConvWeights& weight, const Tensor* bias, const Epilogue& epilogue,
                    Padding padding, float* out) {
  const ConvGeometry g = conv_geometry_s8(in_shape, weight.shape, padding);
  const std::int64_t out_c = weight.shape.dim(3);
  const std::int64_t batch = in_shape.n();
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_s8: bias numel must equal out_channels");
  }
  if (!(act_scale > 0.0F)) {
    throw std::invalid_argument("conv2d_s8: activation scale must be positive");
  }
  if (epilogue.act == Epilogue::Act::kPRelu && epilogue.prelu_alpha == nullptr) {
    throw std::invalid_argument("conv2d_s8: PReLU epilogue requires prelu_alpha");
  }
  if (batch == 0 || g.out_h <= 0 || g.out_w <= 0) return;
  // Combined dequantization factor per output channel: one single-rounded
  // float product, mirrored exactly by the src/check reference. Scratch-backed
  // (as is the padded image below) so a steady-state layer performs no
  // allocation.
  std::span<float> dequant = scratch_floats(ScratchSlot::kS8Dequant,
                                            static_cast<std::size_t>(out_c));
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    dequant[static_cast<std::size_t>(oc)] = act_scale * weight.scale[static_cast<std::size_t>(oc)];
  }
  S8Epilogue epi;
  epi.scale = dequant.data();
  epi.bias = bias != nullptr ? bias->raw() : nullptr;
  epi.act = epilogue.act;
  epi.prelu_alpha = epilogue.prelu_alpha;
  const float inv_scale = 1.0F / act_scale;
  // Quantize the input once into a zero-point-padded image: the padding
  // border is 128 (quantized zero), so the micro-kernels read every k-run in
  // place with no bounds checks. The slack after the last image covers what
  // a kernel reads past the last k-run (s8_image_slack). Pool workers
  // read qimg but never touch the submitting thread's scratch slot, so the
  // span stays valid for both loops.
  const std::int64_t c = g.channels;
  const std::int64_t pad_w = g.out_w + g.kw - 1;
  const std::int64_t pad_h = g.out_h + g.kh - 1;
  const std::int64_t row_bytes = pad_w * c;
  const std::int64_t image_bytes = pad_h * row_bytes;
  const std::int64_t slack = s8_image_slack(weight.packed, g.kw * c, c);
  std::span<std::uint8_t> qimg = scratch_bytes(
      ScratchSlot::kS8Quant, static_cast<std::size_t>(batch * image_bytes + slack));
  std::memset(qimg.data() + batch * image_bytes, kQuantZero, static_cast<std::size_t>(slack));
  const std::int64_t left = g.pad_left * c;
  const std::int64_t inner = g.in_w * c;
  const std::int64_t rows_per_chunk = std::max<std::int64_t>(1, kQuantChunk / row_bytes);
  const std::int64_t chunks = (batch * pad_h + rows_per_chunk - 1) / rows_per_chunk;
  ThreadPool::global().parallel_for(0, chunks, [&](std::int64_t ci) {
    const std::int64_t lo = ci * rows_per_chunk;
    const std::int64_t hi = std::min(lo + rows_per_chunk, batch * pad_h);
    for (std::int64_t pr = lo; pr < hi; ++pr) {
      const std::int64_t n = pr / pad_h;
      const std::int64_t iy = pr % pad_h - g.pad_top;
      std::uint8_t* dst = qimg.data() + pr * row_bytes;
      if (iy < 0 || iy >= g.in_h) {
        std::memset(dst, kQuantZero, static_cast<std::size_t>(row_bytes));
        continue;
      }
      std::memset(dst, kQuantZero, static_cast<std::size_t>(left));
      quantize_u8_run(input + in_shape.offset(n, iy, 0, 0), dst + left, inner, inv_scale);
      std::memset(dst + left + inner, kQuantZero,
                  static_cast<std::size_t>(row_bytes - left - inner));
    }
  });
  const std::int64_t stripe_rows = (kStripePixels + g.out_w - 1) / g.out_w;
  const std::int64_t sc = (g.out_h + stripe_rows - 1) / stripe_rows;
  const std::span<const std::int32_t> cspan{weight.colsum.data(), weight.colsum.size()};
  ThreadPool::global().parallel_for(0, batch * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * stripe_rows;
    const std::int64_t r1 = std::min(r0 + stripe_rows, g.out_h);
    const S8Image image{qimg.data() + n * image_bytes, c, row_bytes, g.out_w};
    conv_s8_rows(image, weight.packed, cspan, r0, r1, out + n * g.out_h * g.out_w * out_c, epi);
  });
}

Tensor conv2d_s8(const Tensor& input, float act_scale, const S8ConvWeights& weight,
                 const Tensor* bias, const Epilogue& epilogue, Padding padding) {
  const ConvGeometry g = conv_geometry_s8(input.shape(), weight.shape, padding);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape.dim(3));
  conv2d_s8_into(input.raw(), input.shape(), act_scale, weight, bias, epilogue, padding,
                 out.raw());
  return out;
}

}  // namespace sesr::nn
