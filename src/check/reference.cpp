#include "check/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "data/resize.hpp"

namespace sesr::check {

DTensor to_dtensor(const Tensor& t) {
  DTensor d(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    d.data[static_cast<std::size_t>(i)] = static_cast<double>(t.raw()[i]);
  }
  return d;
}

std::vector<double> ref_gemm(std::span<const float> a, std::span<const float> b, std::int64_t m,
                             std::int64_t k, std::int64_t n) {
  if (static_cast<std::int64_t>(a.size()) != m * k ||
      static_cast<std::int64_t>(b.size()) != k * n) {
    throw std::invalid_argument("ref_gemm: size mismatch");
  }
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
               static_cast<double>(b[static_cast<std::size_t>(p * n + j)]);
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

DTensor ref_conv2d(const DTensor& input, const Tensor& weight, const nn::ConvGeometry& g) {
  const Shape& is = input.shape;
  const Shape& ws = weight.shape();
  if (is.c() != ws.dim(2)) throw std::invalid_argument("ref_conv2d: channel mismatch");
  const std::int64_t out_c = ws.dim(3);
  DTensor out(Shape(is.n(), g.out_h, g.out_w, out_c));
  for (std::int64_t n = 0; n < is.n(); ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          double acc = 0.0;
          for (std::int64_t ky = 0; ky < g.kh; ++ky) {
            const std::int64_t iy = oy * g.stride - g.pad_top + ky;
            if (iy < 0 || iy >= is.h()) continue;
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              const std::int64_t ix = ox * g.stride - g.pad_left + kx;
              if (ix < 0 || ix >= is.w()) continue;
              for (std::int64_t ic = 0; ic < is.c(); ++ic) {
                acc += input(n, iy, ix, ic) *
                       static_cast<double>(weight(ky, kx, ic, oc));
              }
            }
          }
          out(n, oy, ox, oc) = acc;
        }
      }
    }
  }
  return out;
}

DTensor ref_conv2d(const Tensor& input, const Tensor& weight, const nn::ConvGeometry& g) {
  return ref_conv2d(to_dtensor(input), weight, g);
}

DTensor ref_depth_to_space(const DTensor& input, std::int64_t block) {
  const Shape& s = input.shape;
  if (s.c() % (block * block) != 0) {
    throw std::invalid_argument("ref_depth_to_space: channels not divisible by block^2");
  }
  const std::int64_t out_c = s.c() / (block * block);
  DTensor out(Shape(s.n(), s.h() * block, s.w() * block, out_c));
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t y = 0; y < s.h(); ++y) {
      for (std::int64_t x = 0; x < s.w(); ++x) {
        for (std::int64_t dy = 0; dy < block; ++dy) {
          for (std::int64_t dx = 0; dx < block; ++dx) {
            for (std::int64_t c = 0; c < out_c; ++c) {
              out(n, y * block + dy, x * block + dx, c) =
                  input(n, y, x, (dy * block + dx) * out_c + c);
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

// Symmetric mirror with edge repeat (-1 -> 0, -2 -> 1, ..., n -> n-1), the
// MATLAB imresize boundary rule. Kept separate from data::resize's copy so
// the audit exercises two independently written implementations.
std::int64_t ref_mirror(std::int64_t i, std::int64_t size) {
  const std::int64_t period = 2 * size;
  i %= period;
  if (i < 0) i += period;
  return i < size ? i : period - 1 - i;
}

// Resample one output coordinate along one axis: evaluate the (antialiased)
// cubic window directly against `line`, mirror out-of-range taps, normalize.
double ref_resample_1d(std::int64_t o, std::int64_t in_size, double ratio,
                       const std::vector<double>& line) {
  const double support_scale = std::max(1.0, ratio);
  const double support = 2.0 * support_scale;
  const double center = (static_cast<double>(o) + 0.5) * ratio - 0.5;
  const std::int64_t first = static_cast<std::int64_t>(std::floor(center - support + 0.5));
  const std::int64_t last = static_cast<std::int64_t>(std::floor(center + support + 0.5));
  double acc = 0.0;
  double total = 0.0;
  for (std::int64_t i = first; i <= last; ++i) {
    const double w = data::cubic_kernel((static_cast<double>(i) - center) / support_scale);
    if (w == 0.0) continue;
    acc += w * line[static_cast<std::size_t>(ref_mirror(i, in_size))];
    total += w;
  }
  return acc / total;
}

}  // namespace

DTensor ref_resize_bicubic(const Tensor& input, std::int64_t out_h, std::int64_t out_w) {
  const Shape& s = input.shape();
  if (s.h() < 1 || s.w() < 1 || out_h < 1 || out_w < 1) {
    throw std::invalid_argument("ref_resize_bicubic: empty dimension");
  }
  const double ratio_h = static_cast<double>(s.h()) / static_cast<double>(out_h);
  const double ratio_w = static_cast<double>(s.w()) / static_cast<double>(out_w);

  // Vertical pass in double.
  DTensor mid(Shape(s.n(), out_h, s.w(), s.c()));
  std::vector<double> line(static_cast<std::size_t>(s.h()));
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t x = 0; x < s.w(); ++x) {
      for (std::int64_t c = 0; c < s.c(); ++c) {
        for (std::int64_t y = 0; y < s.h(); ++y) {
          line[static_cast<std::size_t>(y)] = static_cast<double>(input(n, y, x, c));
        }
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          mid(n, oy, x, c) = ref_resample_1d(oy, s.h(), ratio_h, line);
        }
      }
    }
  }

  // Horizontal pass in double (no float rounding of the intermediate).
  DTensor out(Shape(s.n(), out_h, out_w, s.c()));
  line.assign(static_cast<std::size_t>(s.w()), 0.0);
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t y = 0; y < out_h; ++y) {
      for (std::int64_t c = 0; c < s.c(); ++c) {
        for (std::int64_t x = 0; x < s.w(); ++x) {
          line[static_cast<std::size_t>(x)] = mid(n, y, x, c);
        }
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          out(n, y, ox, c) = ref_resample_1d(ox, s.w(), ratio_w, line);
        }
      }
    }
  }
  return out;
}

double ref_psnr(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) throw std::invalid_argument("ref_psnr: shape mismatch");
  if (a.numel() == 0) throw std::invalid_argument("ref_psnr: empty tensors");
  // Kahan-compensated sum of squared differences.
  double sum = 0.0;
  double comp = 0.0;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a.raw()[i]) - static_cast<double>(b.raw()[i]);
    const double term = d * d - comp;
    const double next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  const double mse = sum / static_cast<double>(n);
  if (mse <= 0.0) return 100.0;
  return 10.0 * std::log10(1.0 / mse);
}

namespace {

constexpr std::int64_t kSsimWindow = 11;
constexpr double kSsimSigma = 1.5;
constexpr double kSsimC1 = 0.01 * 0.01;
constexpr double kSsimC2 = 0.03 * 0.03;

std::vector<double> ssim_gaussian() {
  std::vector<double> w(kSsimWindow * kSsimWindow);
  const std::int64_t r = kSsimWindow / 2;
  double total = 0.0;
  for (std::int64_t y = -r; y <= r; ++y) {
    for (std::int64_t x = -r; x <= r; ++x) {
      const double v =
          std::exp(-(static_cast<double>(y * y + x * x)) / (2.0 * kSsimSigma * kSsimSigma));
      w[static_cast<std::size_t>((y + r) * kSsimWindow + (x + r))] = v;
      total += v;
    }
  }
  for (double& v : w) v /= total;
  return w;
}

}  // namespace

double ref_ssim(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) throw std::invalid_argument("ref_ssim: shape mismatch");
  const Shape& s = a.shape();
  if (s.h() < kSsimWindow || s.w() < kSsimWindow) {
    throw std::invalid_argument("ref_ssim: image smaller than the 11x11 window");
  }
  static const std::vector<double> window = ssim_gaussian();
  const std::int64_t r = kSsimWindow / 2;
  double total = 0.0;
  std::int64_t count = 0;
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t c = 0; c < s.c(); ++c) {
      for (std::int64_t y = r; y < s.h() - r; ++y) {
        for (std::int64_t x = r; x < s.w() - r; ++x) {
          // Pass 1: weighted means.
          double mu_a = 0.0;
          double mu_b = 0.0;
          for (std::int64_t dy = -r; dy <= r; ++dy) {
            for (std::int64_t dx = -r; dx <= r; ++dx) {
              const double w =
                  window[static_cast<std::size_t>((dy + r) * kSsimWindow + (dx + r))];
              mu_a += w * a(n, y + dy, x + dx, c);
              mu_b += w * b(n, y + dy, x + dx, c);
            }
          }
          // Pass 2: centered moments — non-negative by construction, no
          // catastrophic cancellation possible.
          double var_a = 0.0;
          double var_b = 0.0;
          double cov = 0.0;
          for (std::int64_t dy = -r; dy <= r; ++dy) {
            for (std::int64_t dx = -r; dx <= r; ++dx) {
              const double w =
                  window[static_cast<std::size_t>((dy + r) * kSsimWindow + (dx + r))];
              const double da = a(n, y + dy, x + dx, c) - mu_a;
              const double db = b(n, y + dy, x + dx, c) - mu_b;
              var_a += w * da * da;
              var_b += w * db * db;
              cov += w * da * db;
            }
          }
          const double num = (2.0 * mu_a * mu_b + kSsimC1) * (2.0 * cov + kSsimC2);
          const double den =
              (mu_a * mu_a + mu_b * mu_b + kSsimC1) * (var_a + var_b + kSsimC2);
          total += num / den;
          ++count;
        }
      }
    }
  }
  return total / static_cast<double>(count);
}

namespace {

Tensor ref_shuffle_f32(const Tensor& input, std::int64_t block) {
  const Shape& s = input.shape();
  const std::int64_t out_c = s.c() / (block * block);
  Tensor out(s.n(), s.h() * block, s.w() * block, out_c);
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t y = 0; y < s.h(); ++y) {
      for (std::int64_t x = 0; x < s.w(); ++x) {
        for (std::int64_t dy = 0; dy < block; ++dy) {
          for (std::int64_t dx = 0; dx < block; ++dx) {
            for (std::int64_t c = 0; c < out_c; ++c) {
              out(n, y * block + dy, x * block + dx, c) =
                  input(n, y, x, (dy * block + dx) * out_c + c);
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::int32_t> ref_gemm_s8_i32(std::span<const std::uint8_t> a,
                                          std::span<const std::int8_t> b, std::int64_t m,
                                          std::int64_t k, std::int64_t n) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += (static_cast<std::int64_t>(a[static_cast<std::size_t>(i * k + p)]) - 128) *
               static_cast<std::int64_t>(b[static_cast<std::size_t>(p * n + j)]);
      }
      if (acc > std::numeric_limits<std::int32_t>::max() ||
          acc < std::numeric_limits<std::int32_t>::min()) {
        throw std::overflow_error("ref_gemm_s8_i32: accumulator exceeds int32 range");
      }
      c[static_cast<std::size_t>(i * n + j)] = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

Tensor ref_conv2d_s8(const Tensor& input, float act_scale, const nn::S8ConvWeights& weight,
                     const Tensor* bias, const nn::Epilogue& epilogue) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape;
  if (is.c() != ws.dim(2)) throw std::invalid_argument("ref_conv2d_s8: channel mismatch");
  const nn::ConvGeometry g = nn::same_geometry(is.h(), is.w(), is.c(), ws.dim(0), ws.dim(1));
  const std::int64_t out_c = ws.dim(3);
  // Quantize the activations exactly as the serving path's padded image does.
  const float inv = 1.0F / act_scale;
  std::vector<std::int8_t> q(static_cast<std::size_t>(input.numel()));
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    q[static_cast<std::size_t>(i)] = nn::quantize_value(input.raw()[i], inv);
  }
  Tensor out(is.n(), g.out_h, g.out_w, out_c);
  for (std::int64_t n = 0; n < is.n(); ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          std::int64_t acc = 0;
          for (std::int64_t ky = 0; ky < g.kh; ++ky) {
            const std::int64_t iy = oy - g.pad_top + ky;
            if (iy < 0 || iy >= is.h()) continue;
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              const std::int64_t ix = ox - g.pad_left + kx;
              if (ix < 0 || ix >= is.w()) continue;
              for (std::int64_t ic = 0; ic < is.c(); ++ic) {
                const std::int64_t xv = q[static_cast<std::size_t>(is.offset(n, iy, ix, ic))];
                const std::int64_t wv =
                    weight.values[static_cast<std::size_t>(ws.offset(ky, kx, ic, oc))];
                acc += xv * wv;
              }
            }
          }
          if (acc > std::numeric_limits<std::int32_t>::max() ||
              acc < std::numeric_limits<std::int32_t>::min()) {
            throw std::overflow_error("ref_conv2d_s8: accumulator exceeds int32 range");
          }
          // The exact fused-store expressions: one single-rounded dequant
          // product per channel, fmaf into the bias, epilogue on f.
          const float dq = act_scale * weight.scale[static_cast<std::size_t>(oc)];
          float f = std::fmaf(static_cast<float>(static_cast<std::int32_t>(acc)), dq,
                              bias != nullptr ? bias->raw()[oc] : 0.0F);
          if (epilogue.act == nn::Epilogue::Act::kRelu) {
            f = f > 0.0F ? f : 0.0F;
          } else if (epilogue.act == nn::Epilogue::Act::kPRelu) {
            f = f > 0.0F ? f : epilogue.prelu_alpha[oc] * f;
          }
          out(n, oy, ox, oc) = f;
        }
      }
    }
  }
  return out;
}

Tensor ref_int8_upscale(const core::SesrInference& net, const Tensor& input) {
  if (input.shape().c() != 1) {
    throw std::invalid_argument("ref_int8_upscale expects a single (Y) channel");
  }
  if (!net.int8_calibrated()) throw std::invalid_argument("ref_int8_upscale: uncalibrated net");
  const auto& convs = net.convolutions();
  auto qconv = [&](std::size_t layer, const Tensor& x, const nn::Epilogue& epilogue) {
    const auto& bias = convs[layer].bias;
    return ref_conv2d_s8(x, net.activation_scales()[layer], net.s8_weights()[layer],
                         bias ? &*bias : nullptr, epilogue);
  };
  Tensor feat = qconv(0, input, net.activation_epilogue(0));
  const Tensor skip = feat;
  for (std::size_t i = 1; i + 1 < convs.size(); ++i) {
    feat = qconv(i, feat, net.activation_epilogue(i));
  }
  for (std::int64_t i = 0; i < feat.numel(); ++i) feat.raw()[i] += skip.raw()[i];
  Tensor out = qconv(convs.size() - 1, feat, nn::Epilogue{});
  if (net.config().input_residual) {
    const std::int64_t oc = out.shape().c();
    const std::int64_t pixels = out.numel() / oc;
    for (std::int64_t p = 0; p < pixels; ++p) {
      for (std::int64_t c = 0; c < oc; ++c) out.raw()[p * oc + c] += input.raw()[p];
    }
  }
  Tensor y = ref_shuffle_f32(out, 2);
  if (net.config().scale == 4) y = ref_shuffle_f32(y, 2);
  return y;
}

}  // namespace sesr::check
