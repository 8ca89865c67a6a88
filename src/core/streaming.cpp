#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "nn/conv2d_s8.hpp"
#include "nn/gemm_s8.hpp"
#include "tensor/fp16.hpp"

namespace sesr::core {

namespace {
// One output row of a SAME-padded conv: taps outside [0, H) read zero rows.
// `rows[t]` is the input row y - r + t (nullptr = zero padding).
void conv_row(const std::vector<const float*>& rows, std::int64_t width, const Tensor& weight,
              float* out) {
  const Shape& ws = weight.shape();
  const std::int64_t kh = ws.dim(0);
  const std::int64_t kw = ws.dim(1);
  const std::int64_t in_c = ws.dim(2);
  const std::int64_t out_c = ws.dim(3);
  const std::int64_t rw = kw / 2;
  std::fill(out, out + width * out_c, 0.0F);
  for (std::int64_t ky = 0; ky < kh; ++ky) {
    const float* src = rows[static_cast<std::size_t>(ky)];
    if (src == nullptr) continue;
    for (std::int64_t x = 0; x < width; ++x) {
      float* dst = out + x * out_c;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const std::int64_t ix = x - rw + kx;
        if (ix < 0 || ix >= width) continue;
        const float* pix = src + ix * in_c;
        const std::int64_t base = (ky * kw + kx) * in_c * out_c;
        const float* w = weight.raw() + base;
        for (std::int64_t ic = 0; ic < in_c; ++ic) {
          const float v = pix[ic];
          if (v == 0.0F) continue;
          const float* wc = w + ic * out_c;
          for (std::int64_t oc = 0; oc < out_c; ++oc) dst[oc] += v * wc[oc];
        }
      }
    }
  }
}

// One output row of the SAME-padded s8 x s8 conv, int32 accumulate. Skipped
// (out-of-bounds) taps contribute zero, exactly like the u8 zero-point
// border of conv2d_s8's padded image; since integer sums are order-independent
// the accumulator equals the int8 kernels' compensated accumulator bit for bit.
void conv_row_s8(const std::vector<const std::int8_t*>& rows, std::int64_t width,
                 const nn::S8ConvWeights& weight, std::int32_t* acc) {
  const Shape& ws = weight.shape;
  const std::int64_t kh = ws.dim(0);
  const std::int64_t kw = ws.dim(1);
  const std::int64_t in_c = ws.dim(2);
  const std::int64_t out_c = ws.dim(3);
  const std::int64_t rw = kw / 2;
  std::fill(acc, acc + width * out_c, 0);
  for (std::int64_t ky = 0; ky < kh; ++ky) {
    const std::int8_t* src = rows[static_cast<std::size_t>(ky)];
    if (src == nullptr) continue;
    for (std::int64_t x = 0; x < width; ++x) {
      std::int32_t* dst = acc + x * out_c;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const std::int64_t ix = x - rw + kx;
        if (ix < 0 || ix >= width) continue;
        const std::int8_t* pix = src + ix * in_c;
        const std::int8_t* w = weight.values.data() + (ky * kw + kx) * in_c * out_c;
        for (std::int64_t ic = 0; ic < in_c; ++ic) {
          const std::int32_t v = pix[ic];
          if (v == 0) continue;
          const std::int8_t* wc = w + ic * out_c;
          for (std::int64_t oc = 0; oc < out_c; ++oc) {
            dst[oc] += v * static_cast<std::int32_t>(wc[oc]);
          }
        }
      }
    }
  }
}

void activate_row(const Tensor& alpha, std::int64_t width, std::int64_t channels, float* row) {
  if (alpha.empty()) {
    for (std::int64_t i = 0; i < width * channels; ++i) row[i] = row[i] > 0.0F ? row[i] : 0.0F;
    return;
  }
  const float* pa = alpha.raw();
  for (std::int64_t x = 0; x < width; ++x) {
    for (std::int64_t c = 0; c < channels; ++c) {
      float& v = row[x * channels + c];
      if (v <= 0.0F) v *= pa[c];
    }
  }
}
}  // namespace

const float* StreamingUpscaler::Stream::row(std::int64_t y) const {
  for (const auto& [index, data] : rows) {
    if (index == y) return data.data();
  }
  return nullptr;
}

void StreamingUpscaler::Stream::push(std::int64_t y, std::vector<float> data) {
  rows.emplace_back(y, std::move(data));
  next_row = y + 1;
}

void StreamingUpscaler::Stream::prune(std::int64_t min_needed_row) {
  while (!rows.empty() && rows.front().first < min_needed_row) rows.pop_front();
}

StreamingUpscaler::StreamingUpscaler(const SesrInference& network) : net_(network) {
  for (const CollapsedConv& conv : network.convolutions()) {
    if (conv.bias) {
      throw std::invalid_argument("StreamingUpscaler: biased networks not supported");
    }
    radius_.push_back(conv.weight.shape().dim(0) / 2);
  }
}

Tensor StreamingUpscaler::upscale(const Tensor& input) {
  const Shape& s = input.shape();
  if (s.n() != 1 || s.c() != 1) {
    throw std::invalid_argument("StreamingUpscaler: expects a (1, H, W, 1) Y image");
  }
  const std::int64_t height = s.h();
  const std::int64_t width = s.w();
  const auto& convs = net_.convolutions();
  const std::size_t n_convs = convs.size();
  // fp16 mode mirrors the full-frame reduced-precision dataflow row by row:
  // rounded weights, rounded input rows, one binary16 rounding per produced
  // activation row (and on the residual sum), fp32 pre-shuffle stream.
  // int8/hybrid mode keeps the fp32 carrier in the deques and quantizes (or
  // rounds, for the plan's fp16 layers) at consumption, exactly as
  // upscale_mixed does per layer.
  const InferencePrecision prec = net_.precision();
  const bool fp16_mode = prec == InferencePrecision::kFp16;
  const bool mixed_mode =
      prec == InferencePrecision::kInt8 || prec == InferencePrecision::kHybrid;
  auto layer_int8 = [&](std::size_t i) {
    return prec == InferencePrecision::kInt8 ||
           (prec == InferencePrecision::kHybrid &&
            net_.hybrid_plan()[i] == LayerPrecision::kInt8);
  };
  if (mixed_mode && !net_.int8_calibrated()) {
    throw std::logic_error("StreamingUpscaler: network not calibrated for int8");
  }
  const bool need_fp16_w =
      fp16_mode || (mixed_mode && [&] {
        for (std::size_t i = 0; i < n_convs; ++i) {
          if (!layer_int8(i)) return true;
        }
        return false;
      }());
  // Per-layer single-rounded dequant products, mirroring conv2d_s8 exactly.
  std::vector<std::vector<float>> s8_dequant;
  if (mixed_mode) {
    s8_dequant.resize(n_convs);
    for (std::size_t i = 0; i < n_convs; ++i) {
      const nn::S8ConvWeights& w8 = net_.s8_weights()[i];
      s8_dequant[i].resize(w8.scale.size());
      for (std::size_t oc = 0; oc < w8.scale.size(); ++oc) {
        s8_dequant[i][oc] = net_.activation_scales()[i] * w8.scale[oc];
      }
    }
  }
  if (need_fp16_w && fp16_weights_.empty()) {
    fp16_weights_.reserve(n_convs);
    for (const CollapsedConv& conv : convs) {
      Tensor w = conv.weight;
      fp16::round_through_half(w.raw(), w.numel());
      fp16_weights_.push_back(std::move(w));
    }
  }
  const std::int64_t scale = net_.config().scale;
  const std::int64_t out_c = net_.config().output_channels();
  Tensor output(1, height * scale, width * scale, 1);

  // Streams: 0 = input, 1 = act0 output, 1+i = act_i output (i = 1..m),
  // n_convs = pre-shuffle tensor. Stream 1 doubles as the blue-skip source;
  // stream 0 doubles as the black-skip source.
  std::vector<Stream> streams(n_convs + 1);
  streams[0].channels = 1;
  for (std::size_t i = 1; i < n_convs; ++i) streams[i].channels = net_.config().f;
  streams[n_convs].channels = out_c;

  peak_rows_ = 0;
  peak_bytes_ = 0;
  std::int64_t shuffled = 0;  // pre-shuffle rows consumed by depth-to-space

  auto try_produce_conv = [&](std::size_t layer) -> bool {
    Stream& src = streams[layer];
    Stream& dst = streams[layer + 1];
    const std::int64_t y = dst.next_row;
    if (y >= height) return false;
    const std::int64_t r = radius_[layer];
    if (src.next_row < std::min(height, y + r + 1)) return false;  // inputs not ready
    const bool is_last = layer + 1 == n_convs;
    // The last conv consumes chain + blue skip; check the skip rows too.
    if (is_last && streams[1].next_row < std::min(height, y + r + 1)) return false;

    const std::int64_t kh = convs[layer].weight.shape().dim(0);
    std::vector<const float*> rows(static_cast<std::size_t>(kh), nullptr);
    std::vector<std::vector<float>> combined;  // keeps combined skip rows alive
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = y - r + ky;
      if (iy < 0 || iy >= height) continue;
      const float* base = src.row(iy);
      if (base == nullptr) throw std::logic_error("StreamingUpscaler: source row pruned too early");
      if (is_last) {
        const float* skip = streams[1].row(iy);
        if (skip == nullptr) throw std::logic_error("StreamingUpscaler: skip row pruned too early");
        std::vector<float> sum(static_cast<std::size_t>(width * src.channels));
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = base[i] + skip[i];
        if (fp16_mode) {
          fp16::round_through_half(sum.data(), static_cast<std::int64_t>(sum.size()));
        }
        combined.push_back(std::move(sum));
        rows[static_cast<std::size_t>(ky)] = combined.back().data();
      } else {
        rows[static_cast<std::size_t>(ky)] = base;
      }
    }
    std::vector<float> out(static_cast<std::size_t>(width * dst.channels));
    if (mixed_mode && layer_int8(layer)) {
      // Quantize the taps with the layer's calibrated scale and run the
      // direct s8 conv; the dequant + activation below restate the fused
      // GEMM epilogue expression exactly (fmaf, then f > 0 ? f : alpha * f),
      // so pure-int8 rows are bitwise equal to the full-frame path.
      const float inv = 1.0F / net_.activation_scales()[layer];
      std::vector<std::vector<std::int8_t>> qstore;
      qstore.reserve(static_cast<std::size_t>(kh));
      std::vector<const std::int8_t*> qrows(static_cast<std::size_t>(kh), nullptr);
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const float* src_row = rows[static_cast<std::size_t>(ky)];
        if (src_row == nullptr) continue;
        std::vector<std::int8_t> q(static_cast<std::size_t>(width * src.channels));
        for (std::size_t i = 0; i < q.size(); ++i) q[i] = nn::quantize_value(src_row[i], inv);
        qstore.push_back(std::move(q));
        qrows[static_cast<std::size_t>(ky)] = qstore.back().data();
      }
      std::vector<std::int32_t> acc(out.size());
      conv_row_s8(qrows, width, net_.s8_weights()[layer], acc.data());
      const std::vector<float>& dq = s8_dequant[layer];
      const std::int64_t ch = dst.channels;
      for (std::int64_t x = 0; x < width; ++x) {
        for (std::int64_t oc = 0; oc < ch; ++oc) {
          out[static_cast<std::size_t>(x * ch + oc)] = std::fmaf(
              static_cast<float>(acc[static_cast<std::size_t>(x * ch + oc)]), dq[static_cast<std::size_t>(oc)], 0.0F);
        }
      }
      if (!is_last) {
        const Tensor& alpha = net_.prelu_alphas().at(layer);
        if (alpha.empty()) {
          for (float& f : out) f = f > 0.0F ? f : 0.0F;
        } else {
          const float* pa = alpha.raw();
          for (std::int64_t x = 0; x < width; ++x) {
            for (std::int64_t oc = 0; oc < ch; ++oc) {
              float& f = out[static_cast<std::size_t>(x * ch + oc)];
              f = f > 0.0F ? f : pa[oc] * f;
            }
          }
        }
      }
    } else if (mixed_mode) {
      // fp16 layer of a hybrid plan: binary16-round copies of the taps (the
      // deques hold the raw fp32 carrier), conv with the rounded weights,
      // one rounding on the stored activation row (except after the last
      // conv) — one layer of the pure-fp16 path, quantize-at-consumption.
      std::vector<std::vector<float>> rstore;
      rstore.reserve(static_cast<std::size_t>(kh));
      std::vector<const float*> rrows(static_cast<std::size_t>(kh), nullptr);
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const float* src_row = rows[static_cast<std::size_t>(ky)];
        if (src_row == nullptr) continue;
        std::vector<float> r(src_row, src_row + width * src.channels);
        fp16::round_through_half(r.data(), static_cast<std::int64_t>(r.size()));
        rstore.push_back(std::move(r));
        rrows[static_cast<std::size_t>(ky)] = rstore.back().data();
      }
      conv_row(rrows, width, fp16_weights_[layer], out.data());
      if (!is_last) {
        activate_row(net_.prelu_alphas().at(layer), width, dst.channels, out.data());
        fp16::round_through_half(out.data(), static_cast<std::int64_t>(out.size()));
      }
    } else {
      conv_row(rows, width, fp16_mode ? fp16_weights_[layer] : convs[layer].weight, out.data());
      if (!is_last) {
        activate_row(net_.prelu_alphas().at(layer), width, dst.channels, out.data());
        if (fp16_mode) {
          fp16::round_through_half(out.data(), static_cast<std::int64_t>(out.size()));
        }
      }
    }
    if (is_last && net_.config().input_residual) {
      const float* in_row = streams[0].row(y);
      if (in_row == nullptr) throw std::logic_error("StreamingUpscaler: input row pruned too early");
      for (std::int64_t x = 0; x < width; ++x) {
        for (std::int64_t c = 0; c < out_c; ++c) out[static_cast<std::size_t>(x * out_c + c)] += in_row[x];
      }
    }
    dst.push(y, std::move(out));
    return true;
  };

  auto try_shuffle = [&]() -> bool {
    Stream& pre = streams[n_convs];
    if (shuffled >= height || pre.next_row <= shuffled) return false;
    const float* row = pre.row(shuffled);
    if (row == nullptr) throw std::logic_error("StreamingUpscaler: pre-shuffle row missing");
    // depth-to-space (applied twice for x4, composed into one index map).
    for (std::int64_t x = 0; x < width; ++x) {
      for (std::int64_t c = 0; c < out_c; ++c) {
        std::int64_t dy = 0;
        std::int64_t dx = 0;
        if (scale == 2) {
          dy = c / 2;
          dx = c % 2;
        } else {  // scale 4: first shuffle block (c / 4), second block (c % 4)
          const std::int64_t c1 = c / 4;
          const std::int64_t c2 = c % 4;
          dy = 2 * (c1 / 2) + c2 / 2;
          dx = 2 * (c1 % 2) + c2 % 2;
        }
        output(0, shuffled * scale + dy, x * scale + dx, 0) = row[x * out_c + c];
      }
    }
    ++shuffled;
    return true;
  };

  auto prune_and_measure = [&]() {
    // Stream 0 feeds conv 0 (radius r0) and, with the input residual, the
    // last conv's output rows (delay = pre-shuffle production).
    const std::int64_t need0_conv = streams[1].next_row - radius_[0];
    const std::int64_t need0_resid =
        net_.config().input_residual ? streams[n_convs].next_row : height;
    streams[0].prune(std::min(need0_conv, need0_resid));
    // Stream 1 feeds conv 1 and the blue skip at the last conv.
    if (n_convs > 2) {
      const std::int64_t need1_conv = streams[2].next_row - radius_[1];
      const std::int64_t need1_skip = streams[n_convs].next_row - radius_[n_convs - 1];
      streams[1].prune(std::min(need1_conv, need1_skip));
      for (std::size_t i = 2; i < n_convs; ++i) {
        streams[i].prune(streams[i + 1].next_row - radius_[i]);
      }
    }
    streams[n_convs].prune(shuffled);
    std::int64_t rows = 0;
    std::int64_t bytes = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Stream& st = streams[i];
      // In fp16 mode every line buffer except the fp32 pre-shuffle stream
      // holds binary16 cells; in int8/hybrid mode each buffer holds what its
      // consuming conv reads (s8 or binary16), except the long-residual
      // sources (input with input_residual, act0), whose second consumer
      // adds on the carrier and which therefore stay binary16 at minimum.
      std::int64_t elem_bytes = 4;
      if (i < n_convs) {
        if (fp16_mode) {
          elem_bytes = 2;
        } else if (mixed_mode) {
          elem_bytes = layer_int8(i) ? 1 : 2;
          const bool residual_source = (i == 0 && net_.config().input_residual) || i == 1;
          if (residual_source) elem_bytes = std::max<std::int64_t>(elem_bytes, 2);
        }
      }
      rows += static_cast<std::int64_t>(st.rows.size());
      bytes += static_cast<std::int64_t>(st.rows.size()) * width * st.channels * elem_bytes;
    }
    peak_rows_ = std::max(peak_rows_, rows);
    peak_bytes_ = std::max(peak_bytes_, bytes);
  };

  // Drive: feed input rows, then advance every stage as far as possible.
  std::int64_t fed = 0;
  while (shuffled < height) {
    bool progress = false;
    if (fed < height) {
      std::vector<float> row(static_cast<std::size_t>(width));
      const float* src = input.raw() + s.offset(0, fed, 0, 0);
      std::copy(src, src + width, row.begin());
      if (fp16_mode) fp16::round_through_half(row.data(), width);
      streams[0].push(fed, std::move(row));
      ++fed;
      progress = true;
    }
    for (std::size_t layer = 0; layer < n_convs; ++layer) {
      while (try_produce_conv(layer)) progress = true;
    }
    while (try_shuffle()) progress = true;
    prune_and_measure();
    if (!progress) throw std::logic_error("StreamingUpscaler: pipeline stalled");
  }
  return output;
}

}  // namespace sesr::core
