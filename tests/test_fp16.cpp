// Tests for the binary16 conversion module and the fp16 inference path.
//
// The conversion proofs are exhaustive where the domain allows it: every one
// of the 65536 half bit patterns must survive half->float->half unchanged
// (NaNs may only be quietened), and the F16C kernels must agree bit-for-bit
// with the scalar reference on the full half domain plus randomized and
// golden float inputs. The inference-path tests pin the determinism
// guarantees the serving layer relies on: thread-count invariance and
// tiled == full-frame bit-identity in fp16 mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "tensor/fp16.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::fp16 {
namespace {

bool half_is_nan(std::uint16_t h) { return (h & 0x7c00U) == 0x7c00U && (h & 0x3ffU) != 0; }

// Restores the dispatch (and lets a test skip cleanly when F16C is absent).
class IsaGuard {
 public:
  explicit IsaGuard(F16cIsa isa) : ok_(set_f16c_isa(isa)) {}
  ~IsaGuard() { set_f16c_isa(F16cIsa::kAuto); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

// ------------------------------------------------- scalar conversion proofs

TEST(Fp16Scalar, ExhaustiveRoundTripAllHalfPatterns) {
  // Every half value is exactly representable in fp32, so converting back
  // must reproduce the original bits. NaNs are the one exception: the
  // float->half direction quietens them (sets the top mantissa bit), matching
  // VCVTPS2PH, so compare with the quiet bit forced on both sides.
  for (std::uint32_t h = 0; h <= 0xffffU; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    const float f = half_bits_to_float(bits);
    const std::uint16_t back = float_to_half_bits(f);
    if (half_is_nan(bits)) {
      ASSERT_TRUE(std::isnan(f)) << std::hex << h;
      ASSERT_EQ(back | 0x0200U, bits | 0x0200U) << std::hex << h;
    } else {
      ASSERT_EQ(back, bits) << std::hex << h;
    }
  }
}

TEST(Fp16Scalar, GoldenHalfToFloat) {
  EXPECT_EQ(half_bits_to_float(0x0000), 0.0F);
  EXPECT_TRUE(std::signbit(half_bits_to_float(0x8000)));
  EXPECT_EQ(half_bits_to_float(0x3c00), 1.0F);
  EXPECT_EQ(half_bits_to_float(0xc000), -2.0F);
  EXPECT_EQ(half_bits_to_float(0x3555), 0.333251953125F);
  EXPECT_EQ(half_bits_to_float(0x7bff), 65504.0F);   // largest finite half
  EXPECT_EQ(half_bits_to_float(0x0400), 0x1.0p-14F); // smallest normal
  EXPECT_EQ(half_bits_to_float(0x03ff), 0x1.ff8p-15F); // largest subnormal
  EXPECT_EQ(half_bits_to_float(0x0001), 0x1.0p-24F); // smallest subnormal
  EXPECT_EQ(half_bits_to_float(0x7c00), std::numeric_limits<float>::infinity());
  EXPECT_EQ(half_bits_to_float(0xfc00), -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(half_bits_to_float(0x7e00)));
  EXPECT_TRUE(std::isnan(half_bits_to_float(0xfdab)));
}

TEST(Fp16Scalar, GoldenFloatToHalfRoundToNearestEven) {
  EXPECT_EQ(float_to_half_bits(0.0F), 0x0000);
  EXPECT_EQ(float_to_half_bits(-0.0F), 0x8000);
  EXPECT_EQ(float_to_half_bits(1.0F), 0x3c00);
  EXPECT_EQ(float_to_half_bits(-2.0F), 0xc000);
  // One half-ULP above 1.0 is a tie: rounds to the even mantissa (1.0).
  EXPECT_EQ(float_to_half_bits(1.0F + 0x1.0p-11F), 0x3c00);
  // Just past the tie rounds up.
  EXPECT_EQ(float_to_half_bits(1.0F + 0x1.2p-11F), 0x3c01);
  // Tie with an odd low mantissa bit rounds up to even.
  EXPECT_EQ(float_to_half_bits(1.0F + 0x1.8p-10F), 0x3c02);
  EXPECT_EQ(float_to_half_bits(65504.0F), 0x7bff);
  // 65520 is the tie between 65504 and 2^16; the carry overflows to inf.
  EXPECT_EQ(float_to_half_bits(65520.0F), 0x7c00);
  EXPECT_EQ(float_to_half_bits(65536.0F), 0x7c00);
  EXPECT_EQ(float_to_half_bits(-1.0e9F), 0xfc00);
  // Smallest subnormal and the underflow ties around it.
  EXPECT_EQ(float_to_half_bits(0x1.0p-24F), 0x0001);
  EXPECT_EQ(float_to_half_bits(0x1.0p-25F), 0x0000);  // tie -> even (zero)
  EXPECT_EQ(float_to_half_bits(0x1.8p-25F), 0x0001);  // past the tie
  EXPECT_EQ(float_to_half_bits(-0x1.0p-26F), 0x8000); // deep underflow keeps sign
  // Subnormal -> normal promotion via mantissa carry.
  EXPECT_EQ(float_to_half_bits(0x1.ffcp-15F), 0x0400);
  EXPECT_EQ(float_to_half_bits(std::numeric_limits<float>::infinity()), 0x7c00);
  EXPECT_EQ(float_to_half_bits(-std::numeric_limits<float>::infinity()), 0xfc00);
  const std::uint16_t nan_bits = float_to_half_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(half_is_nan(nan_bits));
  EXPECT_EQ(nan_bits & 0x0200U, 0x0200U);  // quietened
}

// ------------------------------------------------- F16C vs scalar identity

TEST(Fp16F16c, HalfToFloatBitIdenticalToScalarExhaustive) {
  IsaGuard guard(F16cIsa::kF16c);
  if (!guard.ok()) GTEST_SKIP() << "F16C unavailable on this host";
  std::vector<Half> src(0x10000);
  for (std::uint32_t h = 0; h <= 0xffffU; ++h) src[h].bits = static_cast<std::uint16_t>(h);
  std::vector<float> got(src.size());
  convert_to_float(src.data(), got.data(), static_cast<std::int64_t>(src.size()));
  for (std::uint32_t h = 0; h <= 0xffffU; ++h) {
    const float want = half_bits_to_float(static_cast<std::uint16_t>(h));
    std::uint32_t gb = 0;
    std::uint32_t wb = 0;
    std::memcpy(&gb, &got[h], 4);
    std::memcpy(&wb, &want, 4);
    ASSERT_EQ(gb, wb) << "half bits 0x" << std::hex << h;
  }
}

TEST(Fp16F16c, FloatToHalfBitIdenticalToScalar) {
  IsaGuard guard(F16cIsa::kF16c);
  if (!guard.ok()) GTEST_SKIP() << "F16C unavailable on this host";
  // Every representable half (exact cases), plus randomized floats across
  // the regimes where rounding differs, plus the golden edge values.
  std::vector<float> src;
  for (std::uint32_t h = 0; h <= 0xffffU; ++h) {
    const float f = half_bits_to_float(static_cast<std::uint16_t>(h));
    if (!std::isnan(f)) src.push_back(f);
  }
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const float mag = std::exp(rng.uniform(-20.0F, 12.0F));  // ~2^-29 .. 2^17
    src.push_back(rng.uniform(-1.0F, 1.0F) * mag);
  }
  src.insert(src.end(), {0.0F, -0.0F, 65519.9F, 65520.0F, 0x1.0p-25F, -0x1.0p-25F,
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()});
  std::vector<Half> got(src.size());
  convert_to_half(src.data(), got.data(), static_cast<std::int64_t>(src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(got[i].bits, float_to_half_bits(src[i])) << "input " << src[i];
  }
}

// ------------------------------------------------------- HalfTensor helpers

TEST(HalfTensor, RoundTripMatchesRoundThroughHalf) {
  Rng rng(11);
  Tensor t(2, 5, 7, 3);
  t.fill_uniform(rng, -4.0F, 4.0F);
  const Tensor round_tripped = HalfTensor::from_float(t).to_float();
  Tensor want = t;
  round_through_half(want.raw(), want.numel());
  EXPECT_EQ(max_abs_diff(round_tripped, want), 0.0F);
  // Rounding is idempotent: a second projection changes nothing.
  Tensor again = want;
  round_through_half(again.raw(), again.numel());
  EXPECT_EQ(max_abs_diff(again, want), 0.0F);
}

TEST(HalfTensor, AddInplaceRoundsOncePerElement) {
  Rng rng(13);
  Tensor a(1, 4, 4, 8);
  Tensor b(1, 4, 4, 8);
  a.fill_uniform(rng, -2.0F, 2.0F);
  b.fill_uniform(rng, -2.0F, 2.0F);
  HalfTensor ha = HalfTensor::from_float(a);
  const HalfTensor hb = HalfTensor::from_float(b);
  const Tensor fa = ha.to_float();
  const Tensor fb = hb.to_float();
  add_inplace(ha, hb);
  const Tensor got = ha.to_float();
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float want = half_to_float(float_to_half(fa.raw()[i] + fb.raw()[i]));
    ASSERT_EQ(got.raw()[i], want) << "index " << i;
  }
  EXPECT_THROW(add_inplace(ha, HalfTensor(1, 2, 2, 8)), std::invalid_argument);
}

// ------------------------------------------------------- fp16 conv/network

core::SesrConfig small_config() {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = 2;
  config.expand = 16;
  config.prelu = true;
  config.with_bias = false;
  return config;
}

TEST(Fp16Conv, CloseToFp32OnRoundedOperands) {
  Rng rng(17);
  Tensor x(1, 12, 14, 6);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::he_normal_kernel(3, 3, 6, 8, rng);
  round_through_half(x.raw(), x.numel());
  round_through_half(w.raw(), w.numel());
  const Tensor want = nn::conv2d(x, w, nn::Padding::kSame);
  const Tensor got =
      nn::conv2d_fp16(HalfTensor::from_float(x), HalfTensor::from_float(w), nullptr,
                      nn::Epilogue{}, nn::Padding::kSame)
          .to_float();
  // One output rounding on top of an fp32-accumulated dot product of rounded
  // operands: the only divergence is the final binary16 store.
  EXPECT_LT(max_abs_diff(got, want), 2e-2F);
}

TEST(Fp16Network, TiledBitIdenticalToFullFrame) {
  Rng rng(19);
  core::SesrNetwork network(small_config(), rng);
  core::SesrInference inference(network);
  inference.set_precision(core::InferencePrecision::kFp16);
  Tensor frame(1, 21, 17, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  const Tensor full = inference.upscale(frame);
  core::TilingOptions options;
  options.tile_h = options.tile_w = 8;
  const Tensor tiled = core::upscale_tiled(inference, frame, options);
  // Fixed stripe boundaries and k-block order make per-pixel fp32
  // accumulation identical for any spatial partition; the per-stripe binary16
  // rounding is elementwise, so exact-halo tiles agree bit for bit.
  EXPECT_EQ(max_abs_diff(tiled, full), 0.0F);
}

TEST(Fp16Network, BitIdenticalAcrossThreadCounts) {
  Rng rng(23);
  core::SesrNetwork network(small_config(), rng);
  core::SesrInference inference(network);
  inference.set_precision(core::InferencePrecision::kFp16);
  Tensor frame(1, 19, 23, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  ThreadPool::set_global_threads(1);
  const Tensor serial = inference.upscale(frame);
  ThreadPool::set_global_threads(4);
  const Tensor threaded = inference.upscale(frame);
  unsigned restore = std::thread::hardware_concurrency();
  if (const char* env = std::getenv("SESR_NUM_THREADS")) {
    const long t = std::strtol(env, nullptr, 10);
    restore = t > 0 ? static_cast<unsigned>(t) : 1U;
  }
  ThreadPool::set_global_threads(restore > 0 ? restore : 1U);
  EXPECT_EQ(max_abs_diff(serial, threaded), 0.0F);
}

TEST(Fp16Network, PrecisionSwitchRoundTripsAndStaysClose) {
  Rng rng(29);
  core::SesrNetwork network(small_config(), rng);
  core::SesrInference inference(network);
  Tensor frame(1, 16, 16, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  const Tensor fp32_out = inference.upscale(frame);
  inference.set_precision(core::InferencePrecision::kFp16);
  EXPECT_EQ(inference.precision(), core::InferencePrecision::kFp16);
  const Tensor fp16_out = inference.upscale(frame);
  EXPECT_LT(max_abs_diff(fp16_out, fp32_out), 1e-2F);
  // Switching back restores the exact fp32 result.
  inference.set_precision(core::InferencePrecision::kFp32);
  EXPECT_EQ(max_abs_diff(inference.upscale(frame), fp32_out), 0.0F);
}

// FNV-1a over the upscale() output bits of seeded SESR-M5 nets (x2 and x4,
// random nonzero biases) on a tile-aligned and an odd frame, with the dense
// GEMM forced to one micro-kernel build. Any kernel, lowering or epilogue
// change that moves a single served bit changes it.
std::uint64_t served_output_hash(core::InferencePrecision precision, nn::GemmIsa isa) {
  EXPECT_TRUE(nn::set_gemm_isa(isa));
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::int64_t scale : {2, 4}) {
    core::SesrConfig config = core::sesr_m5(scale);
    config.expand = 16;
    config.with_bias = true;
    Rng rng(1800 + static_cast<std::uint64_t>(scale));
    core::SesrNetwork network(config, rng);
    for (nn::Parameter* p : network.parameters()) {
      if (p->name.ends_with(".bias")) p->value.fill_uniform(rng, -0.1F, 0.1F);
    }
    core::SesrInference net(network);
    net.set_precision(precision);
    for (const auto& [h, w] : {std::pair<std::int64_t, std::int64_t>{64, 64}, {37, 53}}) {
      Tensor frame(1, h, w, 1);
      frame.fill_uniform(rng, 0.0F, 1.0F);
      const Tensor out = net.upscale(frame);
      for (const float v : out.data()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int byte = 0; byte < 4; ++byte) {
          hash = (hash ^ ((bits >> (8 * byte)) & 0xFFU)) * 0x100000001B3ULL;
        }
      }
    }
  }
  nn::set_gemm_isa(nn::GemmIsa::kAuto);
  return hash;
}

TEST(Fp32Network, OutputBitsMatchPinnedHash) {
  // The AVX2 build contracts each multiply-add to an FMA, so it has its own pin.
  const auto fp32 = core::InferencePrecision::kFp32;
  EXPECT_EQ(served_output_hash(fp32, nn::GemmIsa::kGeneric), 0x16CC4ECE569567CFULL);
  if (nn::gemm_avx2_supported()) {
    EXPECT_EQ(served_output_hash(fp32, nn::GemmIsa::kAvx2), 0xE7DFA6127D5E279FULL);
  }
}

TEST(Fp16Network, OutputBitsMatchPinnedHash) {
  // A product of two binary16 values is exact in fp32, so the FMA and the
  // separate multiply-add round alike and both builds give the same bits.
  const auto fp16 = core::InferencePrecision::kFp16;
  EXPECT_EQ(served_output_hash(fp16, nn::GemmIsa::kGeneric), 0xF21F03FA4AA71E49ULL);
  if (!nn::gemm_avx2_supported()) GTEST_SKIP() << "AVX2+FMA unavailable on this host";
  EXPECT_EQ(served_output_hash(fp16, nn::GemmIsa::kAvx2), 0xF21F03FA4AA71E49ULL);
}

}  // namespace
}  // namespace sesr::fp16
