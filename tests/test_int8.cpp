// Tests for the int8 serving path: the canonical quantizer (NaN included),
// the u8 x s8 micro-kernels through gemm_s8 (every ISA build against an int64
// reference and against each other), the fused conv2d_s8 layer, end-to-end calibrated
// inference (kInt8 / kHybrid), checkpoint round-trips, the hybrid-precision
// planner, and the cross-mode bit-exactness promise (full-frame == tiled for
// pure int8).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "check/reference.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "metrics/psnr.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/gemm_s8.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr {
namespace {

core::SesrConfig small_config(bool with_bias = false, bool prelu = true) {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = 2;
  config.expand = 16;
  config.prelu = prelu;
  config.with_bias = with_bias;
  return config;
}

core::SesrInference make_inference(std::uint64_t seed,
                                   const core::SesrConfig& config = small_config()) {
  Rng rng(seed);
  core::SesrNetwork network(config, rng);
  return core::SesrInference(network);
}

Tensor make_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  Rng rng(seed);
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

std::vector<Tensor> make_calibration(std::uint64_t seed, int frames = 3) {
  std::vector<Tensor> calib;
  for (int i = 0; i < frames; ++i) {
    calib.push_back(make_frame(seed + static_cast<std::uint64_t>(i), 14, 14));
  }
  return calib;
}

// ----------------------------------------------------------- quantize_value

TEST(QuantizeValue, RoundsHalfAwayFromZeroAndClamps) {
  EXPECT_EQ(nn::quantize_value(0.0F, 1.0F), 0);
  EXPECT_EQ(nn::quantize_value(0.5F, 1.0F), 1);
  EXPECT_EQ(nn::quantize_value(-0.5F, 1.0F), -1);
  EXPECT_EQ(nn::quantize_value(1.49F, 1.0F), 1);
  EXPECT_EQ(nn::quantize_value(2.5F, 1.0F), 3);
  EXPECT_EQ(nn::quantize_value(-2.5F, 1.0F), -3);
  // Saturation: anything past the symmetric range pins at +/-127.
  EXPECT_EQ(nn::quantize_value(1000.0F, 1.0F), 127);
  EXPECT_EQ(nn::quantize_value(-1000.0F, 1.0F), -127);
  EXPECT_EQ(nn::quantize_value(127.49F, 1.0F), 127);
  // inv_scale applies before rounding.
  EXPECT_EQ(nn::quantize_value(0.5F, 2.0F), 1);
}

TEST(QuantizeValue, MatchesStdRoundOverTheRepresentableRange) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const float v = rng.uniform(-130.0F, 130.0F);
    const float clamped = v < -127.0F ? -127.0F : (v > 127.0F ? 127.0F : v);
    EXPECT_EQ(nn::quantize_value(v, 1.0F),
              static_cast<std::int8_t>(std::lround(clamped)))
        << "v=" << v;
  }
}

TEST(QuantizeValue, NanMapsToZeroPointInEveryBuild) {
  // Raw float frames from the wire are not validated; a NaN must quantize to
  // the zero point (never through an undefined float->int cast), and the bulk
  // quantizer must agree with the scalar expression whether the NaN lands in
  // its vector body or its scalar tail. ctest also runs this suite with
  // SESR_DISABLE_INT8_SIMD=1 (test_int8_forced_generic).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(nn::quantize_value(nan, 1.0F), 0);
  EXPECT_EQ(nn::quantize_value(-nan, 1.0F), 0);
  EXPECT_EQ(nn::quantize_value(nan, 1e30F), 0);
  std::vector<float> src(45);
  Rng rng(3);
  for (float& v : src) v = rng.uniform(-2.0F, 2.0F);
  src[3] = nan;    // vector body (first 32 elements)
  src[20] = -nan;
  src[40] = nan;   // scalar tail
  std::vector<std::uint8_t> dst(src.size());
  nn::quantize_u8_run(src.data(), dst.data(), static_cast<std::int64_t>(src.size()), 50.0F);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst[i], static_cast<std::uint8_t>(nn::quantize_value(src[i], 50.0F) + 128))
        << "i=" << i;
  }
  EXPECT_EQ(dst[3], 128);
  EXPECT_EQ(dst[20], 128);
  EXPECT_EQ(dst[40], 128);
}

// ----------------------------------------------------- quantize_conv_weights

TEST(QuantizeConvWeights, PerChannelScalesAndColumnSums) {
  Rng rng(5);
  Tensor weight(3, 3, 4, 6);  // HWIO
  weight.fill_uniform(rng, -0.8F, 0.8F);
  const nn::S8ConvWeights q = nn::quantize_conv_weights(weight);
  ASSERT_EQ(q.scale.size(), 6U);
  ASSERT_EQ(q.colsum.size(), 6U);
  ASSERT_EQ(q.values.size(), static_cast<std::size_t>(weight.numel()));
  const std::int64_t k = 3 * 3 * 4;
  for (std::int64_t oc = 0; oc < 6; ++oc) {
    // scale = per-channel max|w| / 127.
    float max_abs_w = 0.0F;
    for (std::int64_t p = 0; p < k; ++p) {
      max_abs_w = std::max(max_abs_w, std::fabs(weight.raw()[p * 6 + oc]));
    }
    EXPECT_FLOAT_EQ(q.scale[static_cast<std::size_t>(oc)], max_abs_w / 127.0F);
    // Every value rounds through the canonical quantizer; colsum matches.
    std::int32_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int8_t want = nn::quantize_value(
          weight.raw()[p * 6 + oc], 1.0F / q.scale[static_cast<std::size_t>(oc)]);
      EXPECT_EQ(q.values[static_cast<std::size_t>(p * 6 + oc)], want);
      sum += want;
    }
    EXPECT_EQ(q.colsum[static_cast<std::size_t>(oc)], sum);
  }
}

TEST(QuantizeConvWeights, AllZeroChannelGetsDegenerateScale) {
  Tensor weight(1, 1, 2, 2);
  weight.raw()[0] = 0.0F;  // oc 0 all-zero
  weight.raw()[1] = 0.5F;
  weight.raw()[2] = 0.0F;
  weight.raw()[3] = -0.25F;
  const nn::S8ConvWeights q = nn::quantize_conv_weights(weight);
  EXPECT_FLOAT_EQ(q.scale[0], nn::kDegenerateQuantScale);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[2], 0);
  EXPECT_EQ(q.colsum[0], 0);
}

// ----------------------------------------------------------------- GEMM core

std::vector<std::int32_t> naive_s8_i32(const std::vector<std::uint8_t>& a,
                                       const std::vector<std::int8_t>& b, std::int64_t m,
                                       std::int64_t k, std::int64_t n) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += (static_cast<std::int64_t>(a[static_cast<std::size_t>(i * k + p)]) - 128) *
               static_cast<std::int64_t>(b[static_cast<std::size_t>(p * n + j)]);
      }
      c[static_cast<std::size_t>(i * n + j)] = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

void fill_random_s8(Rng& rng, std::vector<std::uint8_t>& a, std::vector<std::int8_t>& b) {
  for (std::uint8_t& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(-127, 127) + 128);
  for (std::int8_t& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
}

class S8IsaGuard {
 public:
  explicit S8IsaGuard(nn::GemmS8Isa isa) { ok_ = nn::set_gemm_s8_isa(isa); }
  ~S8IsaGuard() { nn::set_gemm_s8_isa(nn::GemmS8Isa::kAuto); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

constexpr nn::GemmS8Isa kAllS8Isas[] = {nn::GemmS8Isa::kGeneric, nn::GemmS8Isa::kAvx2,
                                        nn::GemmS8Isa::kVnni, nn::GemmS8Isa::kAvx512Vnni,
                                        nn::GemmS8Isa::kAmx};

// The bulk quantizer follows the kernel dispatch (scalar for kGeneric, the
// AVX2 build for kAvx2/kVnni, the AVX-512 build for kAvx512Vnni/kAmx). Every
// build, at every length 0-80 (each vector body plus every tail), must equal
// quantize_value + 128 element for element, on the values where a rounding,
// clamp or NaN shortcut would show — and write nothing past n.
TEST(QuantizeU8Run, EveryBuildMatchesTheScalarQuantizerAtEveryLength) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan,     -nan,   0.0F,    -0.0F,  inf,     -inf,   126.5F,
                            -126.5F, 127.5F, -127.5F, 0.5F,   -0.5F,   1.5F,   -1.5F,
                            126.49F, 1e30F,  -1e30F,  1e-40F, -1e-40F, 127.0F, -127.0F};
  constexpr std::size_t kSpecials = std::size(specials);
  constexpr std::int64_t kGuard = 16;
  int builds = 0;
  for (const nn::GemmS8Isa isa : kAllS8Isas) {
    S8IsaGuard guard(isa);
    if (!guard.ok()) continue;
    ++builds;
    Rng rng(77);
    for (std::int64_t len = 0; len <= 80; ++len) {
      std::vector<float> src(static_cast<std::size_t>(len));
      for (std::int64_t i = 0; i < len; ++i) {
        src[static_cast<std::size_t>(i)] =
            i % 2 == 0 ? specials[static_cast<std::size_t>(i / 2 + len) % kSpecials]
                       : rng.uniform(-200.0F, 200.0F);
      }
      std::vector<std::uint8_t> dst(static_cast<std::size_t>(len + kGuard), 0xAB);
      nn::quantize_u8_run(src.data(), dst.data(), len, 1.0F);
      for (std::int64_t i = 0; i < len; ++i) {
        const float v = src[static_cast<std::size_t>(i)];
        ASSERT_EQ(dst[static_cast<std::size_t>(i)],
                  static_cast<std::uint8_t>(nn::quantize_value(v, 1.0F) + 128))
            << nn::gemm_s8_kernel_name() << " len=" << len << " i=" << i << " v=" << v;
      }
      for (std::int64_t i = len; i < len + kGuard; ++i) {
        ASSERT_EQ(dst[static_cast<std::size_t>(i)], 0xAB)
            << nn::gemm_s8_kernel_name() << " wrote past n=" << len;
      }
    }
  }
  EXPECT_GE(builds, 1);
}

void check_gemm_s8_shapes(nn::GemmS8Isa isa) {
  S8IsaGuard guard(isa);
  if (!guard.ok()) GTEST_SKIP() << "ISA unsupported on this CPU";
  // Edge shapes straddling the pixel tiles (16, 4 and their power-of-two
  // remainders), the 16-channel blocks, the 4-channel layout (n <= 4) and
  // the 4- and 16-byte k-runs.
  const std::int64_t shapes[][3] = {{1, 1, 1},    {6, 4, 8},    {7, 5, 9},   {5, 3, 7},
                                    {12, 16, 8},  {13, 17, 9},  {6, 160, 8}, {40, 33, 25},
                                    {16, 48, 16}, {31, 80, 4},  {17, 5, 3},  {37, 400, 16},
                                    {23, 16, 33}, {19, 144, 2}};
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const std::int64_t m = s[0];
    const std::int64_t k = s[1];
    const std::int64_t n = s[2];
    Rng rng(seed++);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_s8(rng, a, b);
    const std::vector<std::int32_t> colsum = nn::s8_column_sums(b, k, n);
    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n));
    nn::gemm_s8_i32(a, b, colsum, got, m, k, n);
    EXPECT_EQ(got, naive_s8_i32(a, b, m, k, n)) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmS8, GenericMatchesInt64Reference) { check_gemm_s8_shapes(nn::GemmS8Isa::kGeneric); }
TEST(GemmS8, Avx2MatchesInt64Reference) { check_gemm_s8_shapes(nn::GemmS8Isa::kAvx2); }
TEST(GemmS8, VnniMatchesInt64Reference) { check_gemm_s8_shapes(nn::GemmS8Isa::kVnni); }
TEST(GemmS8, Avx512VnniMatchesInt64Reference) {
  check_gemm_s8_shapes(nn::GemmS8Isa::kAvx512Vnni);
}
TEST(GemmS8, AmxMatchesInt64Reference) { check_gemm_s8_shapes(nn::GemmS8Isa::kAmx); }

TEST(GemmS8, AllIsaBuildsBitIdentical) {
  Rng rng(42);
  const std::int64_t m = 23;
  const std::int64_t k = 71;
  const std::int64_t n = 19;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  fill_random_s8(rng, a, b);
  const std::vector<std::int32_t> colsum = nn::s8_column_sums(b, k, n);
  std::vector<float> scale(static_cast<std::size_t>(n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  std::vector<float> alpha(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    scale[static_cast<std::size_t>(j)] = rng.uniform(1e-4F, 1e-2F);
    bias[static_cast<std::size_t>(j)] = rng.uniform(-0.1F, 0.1F);
    alpha[static_cast<std::size_t>(j)] = rng.uniform(0.01F, 0.5F);
  }
  nn::S8Epilogue epi;
  epi.scale = scale.data();
  epi.bias = bias.data();
  epi.act = nn::Epilogue::Act::kPRelu;
  epi.prelu_alpha = alpha.data();
  std::vector<std::vector<float>> outs;
  for (const nn::GemmS8Isa isa : kAllS8Isas) {
    S8IsaGuard guard(isa);
    if (!guard.ok()) continue;
    std::vector<float> c(static_cast<std::size_t>(m * n));
    nn::gemm_s8(a, b, colsum, c, m, k, n, epi);
    outs.push_back(std::move(c));
  }
  ASSERT_GE(outs.size(), 1U);
  for (std::size_t i = 1; i < outs.size(); ++i) EXPECT_EQ(outs[i], outs[0]);
}

// The weights the AMX build serves (the wide layout): the 5x5 1->16 first
// conv, the 3x3 16->16 middle convs, the x4 net's 5x5 16->16 last conv (an
// 80-byte run: one 64-byte K chunk plus a 16-byte one) and a 1x1 conv with a
// 160-byte run, the longest the gemm_s8_* audit pairs draw.
struct AmxShape {
  std::int64_t k, in_c, out_c;
};
constexpr AmxShape kAmxShapes[] = {{5, 1, 16}, {3, 16, 16}, {5, 16, 16}, {1, 160, 40}};
constexpr std::int64_t kAmxMaxWidth = 130;  // up to 2 full 64-pixel steps + every tail

struct LayerParams {
  nn::S8ConvWeights q;
  Tensor bias;
  std::vector<float> alpha;
  nn::Epilogue epi;
};

LayerParams make_layer(const AmxShape& s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(s.k, s.k, s.in_c, s.out_c);
  w.fill_uniform(rng, -0.5F, 0.5F);
  LayerParams p{nn::quantize_conv_weights(w), Tensor(1, 1, 1, s.out_c),
                std::vector<float>(static_cast<std::size_t>(s.out_c)), {}};
  p.bias.fill_uniform(rng, -0.1F, 0.1F);
  for (float& a : p.alpha) a = rng.uniform(0.01F, 0.5F);
  p.epi.act = nn::Epilogue::Act::kPRelu;
  p.epi.prelu_alpha = p.alpha.data();
  return p;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The int8 conv layer of every AMX shape, quantize pass and epilogue
// included, under kAmx vs kAvx512Vnni on every width from one 16-pixel C
// tile to two full 64-pixel steps plus each remainder.
TEST(Int8Amx, LayerMatchesAvx512VnniOnEveryWidth) {
  if (!nn::gemm_s8_amx_supported()) GTEST_SKIP() << "AMX-INT8 unavailable on this host";
  std::uint64_t seed = 700;
  for (const AmxShape& s : kAmxShapes) {
    const LayerParams p = make_layer(s, seed++);
    for (std::int64_t width = 1; width <= kAmxMaxWidth; ++width) {
      Rng rng(seed++);
      Tensor x(1, 3, width, s.in_c);
      x.fill_uniform(rng, -1.0F, 1.0F);
      std::vector<float> out[2];
      const nn::GemmS8Isa isas[2] = {nn::GemmS8Isa::kAvx512Vnni, nn::GemmS8Isa::kAmx};
      for (int i = 0; i < 2; ++i) {
        S8IsaGuard guard(isas[i]);
        ASSERT_TRUE(guard.ok());
        const Tensor y =
            nn::conv2d_s8(x, 1.0F / 127.0F, p.q, &p.bias, p.epi, nn::Padding::kSame);
        out[i].assign(y.raw(), y.raw() + y.numel());
      }
      EXPECT_TRUE(same_bits(out[0], out[1]))
          << s.k << "x" << s.k << " " << s.in_c << "->" << s.out_c << " width=" << width;
    }
  }
}

// Bytes that end exactly where a PROT_NONE page begins, so a read one byte
// past them faults.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::size_t n) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapped_ = (n + page - 1) / page * page + page;
    void* base =
        mmap(nullptr, mapped_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::uint8_t*>(base);
    if (mprotect(base_ + mapped_ - page, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = base_ + mapped_ - page - n;
  }
  ~GuardedBytes() { munmap(base_, mapped_); }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;

  std::uint8_t* data() { return data_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t mapped_ = 0;
};

// The AMX tiles read up to 15 pixels past a row's end. Sanitizers do not see
// tileloadd (gcc emits it as inline asm), so this places each padded image
// with exactly s8_image_slack bytes after it, then a PROT_NONE page, and runs
// every AMX shape on every width: one row per task on a 4-thread pool (each
// call configures and releases its own tiles), from the test's main thread
// and from a fresh std::thread.
TEST(Int8Amx, TileReadsStayWithinTheImageSlack) {
  if (!nn::gemm_s8_amx_supported()) GTEST_SKIP() << "AMX-INT8 unavailable on this host";
  ThreadPool pool(4);
  const auto sweep = [&pool] {
    std::uint64_t seed = 900;
    for (const AmxShape& s : kAmxShapes) {
      const LayerParams p = make_layer(s, seed++);
      const nn::S8PackedWeights& w = p.q.packed;
      std::vector<float> scale(static_cast<std::size_t>(s.out_c));
      for (float& v : scale) v = 1e-3F;
      nn::S8Epilogue epi;
      epi.scale = scale.data();
      epi.bias = p.bias.raw();
      epi.act = p.epi.act;
      epi.prelu_alpha = p.epi.prelu_alpha;
      const std::int64_t rows = 4;
      for (std::int64_t width = 1; width <= kAmxMaxWidth; ++width) {
        const std::int64_t row_bytes = (width + s.k - 1) * s.in_c;
        const std::int64_t image_bytes = (rows + s.k - 1) * row_bytes;
        const std::int64_t slack = nn::s8_image_slack(w, s.k * s.in_c, s.in_c);
        GuardedBytes bytes(static_cast<std::size_t>(image_bytes + slack));
        Rng rng(seed++);
        for (std::int64_t i = 0; i < image_bytes; ++i) {
          bytes.data()[i] = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        std::memset(bytes.data() + image_bytes, 128, static_cast<std::size_t>(slack));
        const nn::S8Image image{bytes.data(), s.in_c, row_bytes, width};
        const std::size_t out_size = static_cast<std::size_t>(rows * width * s.out_c);
        std::vector<float> want(out_size);
        std::vector<float> got(out_size);
        {
          S8IsaGuard guard(nn::GemmS8Isa::kAvx512Vnni);
          nn::conv_s8_rows(image, w, p.q.colsum, 0, rows, want.data(), epi);
        }
        S8IsaGuard guard(nn::GemmS8Isa::kAmx);
        pool.parallel_for(0, rows, [&](std::int64_t row) {
          nn::conv_s8_rows(image, w, p.q.colsum, row, row + 1, got.data(), epi);
        });
        EXPECT_TRUE(same_bits(want, got)) << s.k << "x" << s.k << " " << s.in_c << "->"
                                          << s.out_c << " width=" << width;
      }
    }
  };
  sweep();
  std::thread fresh(sweep);
  fresh.join();
}

TEST(GemmS8, EpilogueMatchesScalarFmafExpression) {
  Rng rng(8);
  const std::int64_t m = 9;
  const std::int64_t k = 27;
  const std::int64_t n = 11;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  fill_random_s8(rng, a, b);
  const std::vector<std::int32_t> colsum = nn::s8_column_sums(b, k, n);
  const std::vector<std::int32_t> acc = naive_s8_i32(a, b, m, k, n);
  std::vector<float> scale(static_cast<std::size_t>(n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    scale[static_cast<std::size_t>(j)] = rng.uniform(1e-4F, 1e-2F);
    bias[static_cast<std::size_t>(j)] = rng.uniform(-0.1F, 0.1F);
  }
  nn::S8Epilogue epi;
  epi.scale = scale.data();
  epi.bias = bias.data();
  epi.act = nn::Epilogue::Act::kRelu;
  std::vector<float> got(static_cast<std::size_t>(m * n));
  nn::gemm_s8(a, b, colsum, got, m, k, n, epi);
  for (std::int64_t i = 0; i < m * n; ++i) {
    const std::size_t j = static_cast<std::size_t>(i % n);
    // The documented store: one fmaf, then the activation.
    float want = std::fmaf(static_cast<float>(acc[static_cast<std::size_t>(i)]), scale[j],
                           bias[j]);
    want = want > 0.0F ? want : 0.0F;
    EXPECT_EQ(got[static_cast<std::size_t>(i)], want) << "i=" << i;
  }
}

// ----------------------------------------------------------------- conv2d_s8

// The u8 carrier: an int8 conv that requantizes into the next conv's padded
// image must leave exactly the bytes quantizing its fp32 output (plus the
// residual) would have: interior, 128 border and slack, over a destination
// full of stale bytes. Wide outputs of one full and one partial 16-channel
// block, two blocks, and a narrow one; NaN inputs and next-layer scales that
// clamp; every build.
TEST(Conv2dS8, U8OutputEqualsQuantizingTheFp32OutputUnderEveryIsa) {
  struct Case {
    std::int64_t k, in_c, out_c, next_k;
  };
  const Case cases[] = {{3, 16, 16, 3}, {3, 8, 8, 5}, {5, 1, 20, 3}, {3, 16, 4, 5}};
  int builds = 0;
  for (const nn::GemmS8Isa isa : kAllS8Isas) {
    S8IsaGuard guard(isa);
    if (!guard.ok()) continue;
    ++builds;
    std::uint64_t seed = 1300;
    for (const Case& c : cases) {
      Rng rng(seed++);
      Tensor input(2, 7, 21, c.in_c);
      input.fill_uniform(rng, -1.0F, 1.0F);
      input.raw()[5] = std::numeric_limits<float>::quiet_NaN();
      Tensor weight(c.k, c.k, c.in_c, c.out_c);
      weight.fill_uniform(rng, -0.5F, 0.5F);
      Tensor bias(1, 1, 1, c.out_c);
      bias.fill_uniform(rng, -0.2F, 0.2F);
      Tensor next_weight(c.next_k, c.next_k, c.out_c, 6);
      next_weight.fill_uniform(rng, -0.5F, 0.5F);
      Tensor residual(2, 7, 21, c.out_c);
      residual.fill_uniform(rng, -1.0F, 1.0F);
      std::vector<float> alpha(static_cast<std::size_t>(c.out_c));
      for (float& a : alpha) a = rng.uniform(0.05F, 0.5F);
      nn::Epilogue epi;
      epi.act = nn::Epilogue::Act::kPRelu;
      epi.prelu_alpha = alpha.data();
      const float scale = 1.0F / 127.0F;
      const nn::S8ConvWeights q = nn::quantize_conv_weights(weight);
      const nn::S8ConvWeights next = nn::quantize_conv_weights(next_weight);
      Tensor fp32 = nn::conv2d_s8(input, scale, q, &bias, epi, nn::Padding::kSame);
      add_inplace(fp32, residual);
      // Half the largest value's scale: the top of the range clamps.
      const float next_scale = 0.5F * max_abs(fp32) / 127.0F;
      const nn::S8ImageLayout layout = nn::s8_image_layout(7, 21, next, nn::Padding::kSame);
      std::vector<std::uint8_t> want(static_cast<std::size_t>(layout.bytes(2)));
      nn::quantize_s8_image(fp32.raw(), 2, layout, next_scale, want.data());
      std::vector<std::uint8_t> got(want.size(), 0x5A);
      nn::S8ConvOutput out;
      out.u8 = got.data();
      out.u8_layout = layout;
      out.u8_act_scale = next_scale;
      out.residual = residual.raw();
      nn::conv2d_s8_into(input.raw(), input.shape(), scale, q, &bias, epi, nn::Padding::kSame,
                         out);
      EXPECT_EQ(got, want) << nn::gemm_s8_kernel_name() << " " << c.k << "x" << c.k << " "
                           << c.in_c << "->" << c.out_c;
    }
  }
  EXPECT_GE(builds, 1);
}

TEST(Conv2dS8, BitExactAgainstInt64Reference) {
  Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t kk = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3, 5
    const std::int64_t in_c = rng.uniform_int(1, 6);
    const std::int64_t out_c = rng.uniform_int(1, 6);
    Tensor input(1, rng.uniform_int(5, 14), rng.uniform_int(5, 14), in_c);
    input.fill_uniform(rng, -1.0F, 1.0F);
    Tensor weight(kk, kk, in_c, out_c);
    weight.fill_uniform(rng, -0.6F, 0.6F);
    const nn::S8ConvWeights q = nn::quantize_conv_weights(weight);
    const float act_scale = max_abs(input) > 0.0F ? max_abs(input) / 127.0F
                                                  : nn::kDegenerateQuantScale;
    Tensor bias(1, 1, 1, out_c);
    bias.fill_uniform(rng, -0.2F, 0.2F);
    nn::Epilogue epi;
    epi.act = nn::Epilogue::Act::kRelu;
    const Tensor got = nn::conv2d_s8(input, act_scale, q, &bias, epi, nn::Padding::kSame);
    const Tensor want = check::ref_conv2d_s8(input, act_scale, q, &bias, epi);
    EXPECT_EQ(max_abs_diff(got, want), 0.0F) << "trial=" << trial;
  }
}

TEST(Conv2dS8, NanInputQuantizesToZeroPointUnderEveryIsa) {
  // A NaN pixel must behave exactly like a 0.0 pixel, in every kernel build
  // and wherever it falls relative to the bulk quantizer's vector body.
  Rng rng(22);
  Tensor input(1, 9, 37, 16);
  input.fill_uniform(rng, -1.0F, 1.0F);
  Tensor zeroed = input;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int64_t i : {std::int64_t{5}, std::int64_t{300}, std::int64_t{37 * 16 - 1},
                               input.numel() - 2}) {
    input.raw()[i] = nan;
    zeroed.raw()[i] = 0.0F;
  }
  Tensor weight(3, 3, 16, 16);
  weight.fill_uniform(rng, -0.5F, 0.5F);
  const nn::S8ConvWeights q = nn::quantize_conv_weights(weight);
  nn::Epilogue epi;
  const Tensor want = nn::conv2d_s8(zeroed, 1.0F / 127.0F, q, nullptr, epi, nn::Padding::kSame);
  for (const nn::GemmS8Isa isa : kAllS8Isas) {
    S8IsaGuard guard(isa);
    if (!guard.ok()) continue;
    const Tensor got = nn::conv2d_s8(input, 1.0F / 127.0F, q, nullptr, epi, nn::Padding::kSame);
    EXPECT_EQ(max_abs_diff(got, want), 0.0F) << "isa=" << static_cast<int>(isa);
  }
}

// -------------------------------------------------------- end-to-end network

TEST(Int8Network, UncalibratedPrecisionSwitchThrows) {
  core::SesrInference net = make_inference(3);
  EXPECT_THROW(net.set_precision(core::InferencePrecision::kInt8), std::logic_error);
  EXPECT_THROW(net.set_precision(core::InferencePrecision::kHybrid), std::logic_error);
  net.calibrate_int8(make_calibration(30));
  net.set_precision(core::InferencePrecision::kInt8);
  // Calibrated but no plan: hybrid still refuses.
  EXPECT_THROW(net.set_precision(core::InferencePrecision::kHybrid), std::logic_error);
  EXPECT_THROW(net.set_hybrid_plan({core::LayerPrecision::kInt8}), std::invalid_argument);
  net.set_hybrid_plan(std::vector<core::LayerPrecision>(net.convolutions().size(),
                                                        core::LayerPrecision::kInt8));
  net.set_precision(core::InferencePrecision::kHybrid);
}

TEST(Int8Network, CalibratedInt8StaysCloseToFp32) {
  core::SesrInference net = make_inference(4, small_config(/*with_bias=*/true));
  net.calibrate_int8(make_calibration(40));
  const Tensor frame = make_frame(41, 20, 20);
  const Tensor fp32 = net.upscale(frame);
  net.set_precision(core::InferencePrecision::kInt8);
  const Tensor int8 = net.upscale(frame);
  EXPECT_EQ(int8.shape(), fp32.shape());
  // Freshly initialized nets quantize well: the calibrated path should sit
  // far above any visually meaningful threshold.
  EXPECT_GT(metrics::psnr(int8, fp32), 40.0);
}

TEST(Int8Network, ZeroCalibrationFramesGiveDegenerateScales) {
  // An all-zero calibration set has no range to observe: every layer falls
  // back to kDegenerateQuantScale instead of a zero scale, and int8 inference
  // still produces finite output.
  core::SesrInference net = make_inference(12);
  net.calibrate_int8({Tensor(1, 16, 16, 1), Tensor(1, 8, 8, 1)});
  ASSERT_EQ(net.activation_scales().size(), net.convolutions().size());
  for (const float s : net.activation_scales()) EXPECT_EQ(s, nn::kDegenerateQuantScale);
  net.set_precision(core::InferencePrecision::kInt8);
  const Tensor out = net.upscale(make_frame(121, 12, 12));
  EXPECT_EQ(out.shape(), Shape(1, 24, 24, 1));
  for (const float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Int8Network, CalibrateWithoutFramesThrows) {
  core::SesrInference net = make_inference(13);
  EXPECT_THROW(net.calibrate_int8({}), std::invalid_argument);
  EXPECT_FALSE(net.int8_calibrated());
}

TEST(Int8Network, HybridAllFp16PlanMatchesFp16Path) {
  // A plan with zero int8 layers must reproduce the kFp16 path bit-exactly —
  // the hybrid executor's fp16 arm is the same arithmetic. The input residual
  // is the one documented divergence (hybrid adds the raw input, pure fp16
  // the binary16-rounded input), so this net drops it.
  core::SesrConfig config = small_config();
  config.input_residual = false;
  core::SesrInference net = make_inference(5, config);
  net.calibrate_int8(make_calibration(50));
  net.set_hybrid_plan(std::vector<core::LayerPrecision>(net.convolutions().size(),
                                                        core::LayerPrecision::kFp16));
  const Tensor frame = make_frame(51, 16, 16);
  net.set_precision(core::InferencePrecision::kFp16);
  const Tensor fp16 = net.upscale(frame);
  net.set_precision(core::InferencePrecision::kHybrid);
  const Tensor hybrid = net.upscale(frame);
  EXPECT_EQ(max_abs_diff(hybrid, fp16), 0.0F);
}

TEST(Int8Network, AllInt8HybridPlanMatchesInt8Bitwise) {
  // kInt8 and an all-int8 kHybrid plan bind the same kernel to every layer,
  // so they compile to the same steps and must agree bit for bit.
  core::SesrInference net = make_inference(9, small_config(/*with_bias=*/true));
  net.calibrate_int8(make_calibration(90));
  net.set_hybrid_plan(std::vector<core::LayerPrecision>(net.convolutions().size(),
                                                        core::LayerPrecision::kInt8));
  const Tensor frame = make_frame(91, 17, 22);
  net.set_precision(core::InferencePrecision::kInt8);
  const Tensor int8 = net.upscale(frame);
  net.set_precision(core::InferencePrecision::kHybrid);
  const Tensor hybrid = net.upscale(frame);
  ASSERT_EQ(hybrid.numel(), int8.numel());
  EXPECT_EQ(std::memcmp(hybrid.raw(), int8.raw(),
                        static_cast<std::size_t>(int8.numel()) * sizeof(float)),
            0);
}

TEST(Int8Network, CalibrationScalesMatchPinnedValues) {
  // Activation scales of one seeded biased net, pinned bit for bit. Any
  // change to the dataflow calibration observes (bias, fused activation, the
  // long residual before the last conv) shows up here as a changed bit.
  core::SesrInference net = make_inference(2024, small_config(/*with_bias=*/true));
  net.calibrate_int8(make_calibration(2025));
  const std::uint32_t want[] = {0x3C00E4E7U, 0x3B53BB3EU, 0x3B80BD44U, 0x3BDE69F3U};
  ASSERT_EQ(net.activation_scales().size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    std::uint32_t got = 0;
    std::memcpy(&got, &net.activation_scales()[i], sizeof(got));
    EXPECT_EQ(got, want[i]) << "layer " << i;
  }
}

TEST(Int8Network, OutputBitsMatchPinnedHash) {
  // FNV-1a over the kInt8 upscale output bits of seeded SESR-M5 nets (x2 and
  // x4) on a tile-aligned and an odd frame, pinned from the packed-panel
  // kernels these in-place kernels replaced; any kernel, layout or epilogue
  // change that moves a single served bit changes it.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::int64_t scale : {2, 4}) {
    core::SesrConfig config = core::sesr_m5(scale);
    config.expand = 16;
    config.with_bias = true;
    core::SesrInference net = make_inference(1700 + static_cast<std::uint64_t>(scale), config);
    net.calibrate_int8(make_calibration(1710));
    net.set_precision(core::InferencePrecision::kInt8);
    for (const auto& [h, w] : {std::pair<std::int64_t, std::int64_t>{64, 64}, {37, 53}}) {
      const Tensor out = net.upscale(make_frame(1720 + static_cast<std::uint64_t>(h), h, w));
      for (const float v : out.data()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int byte = 0; byte < 4; ++byte) {
          hash = (hash ^ ((bits >> (8 * byte)) & 0xFFU)) * 0x100000001B3ULL;
        }
      }
    }
  }
  EXPECT_EQ(hash, 0xE22288DEF5DB0D44ULL);
}

TEST(Int8Network, CheckpointRoundTripBitExact) {
  core::SesrInference net = make_inference(6, small_config(/*with_bias=*/true));
  net.calibrate_int8(make_calibration(60));
  std::vector<core::LayerPrecision> plan(net.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  plan[0] = core::LayerPrecision::kInt8;
  net.set_hybrid_plan(plan);
  core::SesrInference restored(net.to_tensor_map());
  ASSERT_TRUE(restored.int8_calibrated());
  EXPECT_EQ(restored.activation_scales(), net.activation_scales());
  ASSERT_EQ(restored.hybrid_plan().size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) EXPECT_EQ(restored.hybrid_plan()[i], plan[i]);
  const Tensor frame = make_frame(61, 18, 13);
  for (const core::InferencePrecision prec :
       {core::InferencePrecision::kInt8, core::InferencePrecision::kHybrid}) {
    net.set_precision(prec);
    restored.set_precision(prec);
    EXPECT_EQ(max_abs_diff(restored.upscale(frame), net.upscale(frame)), 0.0F);
  }
}

TEST(Int8Network, PureInt8BitIdenticalAcrossExecutionModes) {
  // The tentpole exactness claim: fixed scales + elementwise quantization +
  // order-independent integer accumulation => cropping commutes with every
  // quantized layer, so tiled runs reproduce the full frame bitwise.
  core::SesrInference net = make_inference(7);
  net.calibrate_int8(make_calibration(70));
  net.set_precision(core::InferencePrecision::kInt8);
  const Tensor frame = make_frame(71, 21, 17);
  const Tensor full = net.upscale(frame);
  core::TilingOptions tiling;
  tiling.tile_h = 6;
  tiling.tile_w = 7;
  EXPECT_EQ(max_abs_diff(core::upscale_tiled(net, frame, tiling), full), 0.0F);
}

// -------------------------------------------------------------- hybrid plan

TEST(HybridPlanner, ExhaustiveSearchRespectsBudgetAndPicksMaxInt8) {
  core::SesrInference net = make_inference(9);
  const std::vector<Tensor> lr = make_calibration(90, 2);
  // HR targets = fp32 outputs + noise: exact outputs would peg the fp32
  // baseline at the identical-image PSNR cap and make every budget
  // infeasible.
  std::vector<Tensor> hr;
  Rng noise_rng(91);
  for (const Tensor& f : lr) {
    Tensor out = net.upscale(f);
    Tensor noise(out.shape());
    noise.fill_uniform(noise_rng, -0.005F, 0.005F);
    for (std::int64_t i = 0; i < out.numel(); ++i) out.raw()[i] += noise.raw()[i];
    hr.push_back(std::move(out));
  }
  net.calibrate_int8(lr);
  const core::HybridPlanReport report = core::plan_hybrid_precision(net, lr, hr, 0.3);
  const std::size_t n_layers = net.convolutions().size();
  ASSERT_LE(n_layers, static_cast<std::size_t>(core::kExhaustiveLayers));
  EXPECT_EQ(report.evaluated, static_cast<std::int64_t>(1) << n_layers);
  EXPECT_EQ(report.plan.size(), n_layers);
  EXPECT_LE(report.drop_db, 0.3);
  std::int64_t int8_layers = 0;
  for (const core::LayerPrecision p : report.plan) {
    int8_layers += p == core::LayerPrecision::kInt8 ? 1 : 0;
  }
  EXPECT_EQ(int8_layers, report.int8_layers);
  // The plan is installed on the network and the precision restored.
  EXPECT_EQ(net.hybrid_plan().size(), n_layers);
  EXPECT_EQ(net.precision(), core::InferencePrecision::kFp32);
}

TEST(HybridPlanner, ImpossibleBudgetFallsBackToBestPsnrPlan) {
  core::SesrInference net = make_inference(10);
  const std::vector<Tensor> lr = make_calibration(100, 2);
  // Exact fp32 outputs as HR: baseline hits the identical-image cap, so no
  // quantized plan can stay within any finite budget. The planner must still
  // return (and install) the best-PSNR plan rather than throw.
  std::vector<Tensor> hr;
  for (const Tensor& f : lr) hr.push_back(net.upscale(f));
  net.calibrate_int8(lr);
  const core::HybridPlanReport report = core::plan_hybrid_precision(net, lr, hr, 0.05);
  EXPECT_GT(report.drop_db, 0.05);  // infeasible — fallback taken
  EXPECT_EQ(report.plan.size(), net.convolutions().size());
  EXPECT_EQ(net.hybrid_plan().size(), net.convolutions().size());
}

TEST(HybridPlanner, RequiresCalibrationAndMatchingPairs) {
  core::SesrInference net = make_inference(12);
  const std::vector<Tensor> lr = make_calibration(120, 2);
  std::vector<Tensor> hr;
  for (const Tensor& f : lr) hr.push_back(net.upscale(f));
  EXPECT_THROW(core::plan_hybrid_precision(net, lr, hr), std::logic_error);
  net.calibrate_int8(lr);
  std::vector<Tensor> short_hr(hr.begin(), hr.end() - 1);
  EXPECT_THROW(core::plan_hybrid_precision(net, lr, short_hr), std::invalid_argument);
  EXPECT_THROW(core::plan_hybrid_precision(net, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace sesr
