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

// Interior row y of batch item n: where its w * c quantized bytes start.
std::uint8_t* interior(std::uint8_t* image, const S8ImageLayout& l, std::int64_t n,
                       std::int64_t y) {
  return image + n * l.image_bytes() + (l.top + y) * l.row_bytes() + l.left * l.c;
}

// Sets every byte of a batch of images outside the h x w x c interiors to
// 128: the padding frame of each image and the slack after the last one.
void fill_s8_border(std::uint8_t* image, std::int64_t batch, const S8ImageLayout& l) {
  const std::int64_t row = l.row_bytes();
  const std::int64_t inner = l.w * l.c;
  for (std::int64_t n = 0; n < batch; ++n) {
    std::uint8_t* img = image + n * l.image_bytes();
    const std::int64_t head = l.h > 0 ? l.top * row + l.left * l.c : l.image_bytes();
    std::memset(img, kQuantZero, static_cast<std::size_t>(head));
    // The right border of each interior row runs into the left border of
    // the next (or the bottom rows after the last).
    for (std::int64_t y = 0; y < l.h; ++y) {
      std::uint8_t* end = interior(img, l, 0, y) + inner;
      const std::int64_t gap = y + 1 < l.h ? row - inner : img + l.image_bytes() - end;
      std::memset(end, kQuantZero, static_cast<std::size_t>(gap));
    }
  }
  std::memset(image + batch * l.image_bytes(), kQuantZero, static_cast<std::size_t>(l.slack));
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

S8ImageLayout s8_image_layout(std::int64_t h, std::int64_t w, const S8ConvWeights& weight,
                              Padding padding) {
  const ConvGeometry g =
      conv_geometry_s8(Shape(1, h, w, weight.shape.dim(2)), weight.shape, padding);
  S8ImageLayout l;
  l.h = h;
  l.w = w;
  l.c = g.channels;
  l.top = g.pad_top;
  l.left = g.pad_left;
  l.pad_h = std::max<std::int64_t>(0, g.out_h + g.kh - 1);
  l.pad_w = std::max<std::int64_t>(0, g.out_w + g.kw - 1);
  l.slack = s8_image_slack(weight.packed, g.kw * l.c, l.c);
  return l;
}

void quantize_s8_image(const float* input, std::int64_t batch, const S8ImageLayout& layout,
                       float act_scale, std::uint8_t* image) {
  if (!(act_scale > 0.0F)) {
    throw std::invalid_argument("quantize_s8_image: activation scale must be positive");
  }
  fill_s8_border(image, batch, layout);
  const float inv_scale = 1.0F / act_scale;
  const std::int64_t inner = layout.w * layout.c;
  const std::int64_t rows = batch * layout.h;
  const std::int64_t rows_per_chunk =
      std::max<std::int64_t>(1, kQuantChunk / std::max<std::int64_t>(1, inner));
  const std::int64_t chunks = (rows + rows_per_chunk - 1) / rows_per_chunk;
  ThreadPool::global().parallel_for(0, chunks, [&](std::int64_t ci) {
    const std::int64_t hi = std::min(ci * rows_per_chunk + rows_per_chunk, rows);
    for (std::int64_t row = ci * rows_per_chunk; row < hi; ++row) {
      std::uint8_t* dst = interior(image, layout, row / layout.h, row % layout.h);
      quantize_u8_run(input + row * inner, dst, inner, inv_scale);
    }
  });
}

void conv2d_s8_image_into(const std::uint8_t* image, const S8ImageLayout& layout,
                          std::int64_t batch, float act_scale, const S8ConvWeights& weight,
                          const Tensor* bias, const Epilogue& epilogue, const S8ConvOutput& out) {
  const std::int64_t out_c = weight.shape.dim(3);
  if (layout.c != weight.shape.dim(2)) {
    throw std::invalid_argument("conv2d_s8: image channels " + std::to_string(layout.c) +
                                " != weight in_channels " +
                                std::to_string(weight.shape.dim(2)));
  }
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_s8: bias numel must equal out_channels");
  }
  if (!(act_scale > 0.0F)) {
    throw std::invalid_argument("conv2d_s8: activation scale must be positive");
  }
  if (epilogue.act == Epilogue::Act::kPRelu && epilogue.prelu_alpha == nullptr) {
    throw std::invalid_argument("conv2d_s8: PReLU epilogue requires prelu_alpha");
  }
  const std::int64_t out_h = layout.pad_h - weight.shape.dim(0) + 1;
  const std::int64_t out_w = layout.pad_w - weight.shape.dim(1) + 1;
  const S8ImageLayout& next = out.u8_layout;
  if (out.u8 != nullptr) {
    if (next.h != out_h || next.w != out_w || next.c != out_c) {
      throw std::invalid_argument("conv2d_s8: u8 output layout does not match the output shape");
    }
    if (!(out.u8_act_scale > 0.0F)) {
      throw std::invalid_argument("conv2d_s8: u8 output scale must be positive");
    }
  }
  if (batch == 0 || out_h <= 0 || out_w <= 0) return;
  // Combined dequantization factor per output channel: one single-rounded
  // float product, mirrored exactly by the src/check reference. Scratch-backed
  // so a steady-state layer performs no allocation.
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
  if (out.u8 != nullptr) fill_s8_border(out.u8, batch, next);
  const float next_inv_scale = out.u8 != nullptr ? 1.0F / out.u8_act_scale : 0.0F;
  const std::int64_t out_image = out_h * out_w * out_c;
  const std::int64_t stripe_rows = (kStripePixels + out_w - 1) / out_w;
  const std::int64_t sc = (out_h + stripe_rows - 1) / stripe_rows;
  const std::span<const std::int32_t> cspan{weight.colsum.data(), weight.colsum.size()};
  ThreadPool::global().parallel_for(0, batch * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * stripe_rows;
    const std::int64_t r1 = std::min(r0 + stripe_rows, out_h);
    const S8Image a{image + n * layout.image_bytes(), layout.c, layout.row_bytes(), out_w};
    S8Epilogue e = epi;
    if (out.residual != nullptr) e.residual = out.residual + n * out_image;
    if (out.u8 != nullptr) {
      conv_s8_rows_u8(a, weight.packed, cspan, r0, r1, interior(out.u8, next, n, 0),
                      next.row_bytes(), next_inv_scale, e);
    } else {
      conv_s8_rows(a, weight.packed, cspan, r0, r1, out.f32 + n * out_image, e);
    }
  });
}

void conv2d_s8_into(const float* input, const Shape& in_shape, float act_scale,
                    const S8ConvWeights& weight, const Tensor* bias, const Epilogue& epilogue,
                    Padding padding, const S8ConvOutput& out) {
  const S8ImageLayout layout = s8_image_layout(in_shape.h(), in_shape.w(), weight, padding);
  if (in_shape.c() != layout.c) {
    throw std::invalid_argument("conv2d_s8: input channels " + std::to_string(in_shape.c()) +
                                " != weight in_channels " + std::to_string(layout.c));
  }
  // Pool workers read the image but never touch the submitting thread's
  // scratch slot, so the span stays valid for both passes.
  std::span<std::uint8_t> image = scratch_bytes(
      ScratchSlot::kS8Quant, static_cast<std::size_t>(layout.bytes(in_shape.n())));
  quantize_s8_image(input, in_shape.n(), layout, act_scale, image.data());
  conv2d_s8_image_into(image.data(), layout, in_shape.n(), act_scale, weight, bias, epilogue,
                       out);
}

Tensor conv2d_s8(const Tensor& input, float act_scale, const S8ConvWeights& weight,
                 const Tensor* bias, const Epilogue& epilogue, Padding padding) {
  const ConvGeometry g = conv_geometry_s8(input.shape(), weight.shape, padding);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape.dim(3));
  S8ConvOutput target;
  target.f32 = out.raw();
  conv2d_s8_into(input.raw(), input.shape(), act_scale, weight, bias, epilogue, padding, target);
  return out;
}

}  // namespace sesr::nn
