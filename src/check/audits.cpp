// The builtin optimized-vs-reference pairs of the numerical audit.
//
// Each pair's trial draws a random configuration from its seed (shapes,
// strides, padding, sparsity, data), runs the optimized path and the double
// reference in src/check/reference.cpp, and returns the error statistics
// plus a bit hash of the optimized output (for the cross-thread-count
// determinism check). Tolerances are per pair and documented in
// docs/AUDIT.md; a trial fails only when it exceeds BOTH the absolute and
// the ULP tolerance.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hpp"
#include "check/compare.hpp"
#include "check/reference.hpp"
#include "core/collapse.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "data/resize.hpp"
#include "data/video.hpp"
#include "metrics/psnr.hpp"
#include "metrics/ssim.hpp"
#include <limits>

#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/depth_to_space.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_s8.hpp"
#include "serve/sharded_server.hpp"
#include "tensor/fp16.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::check {

namespace {

Tensor random_tensor(Rng& rng, std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c,
                     float lo = -1.0F, float hi = 1.0F) {
  Tensor t(n, h, w, c);
  t.fill_uniform(rng, lo, hi);
  return t;
}

std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << s.n() << "x" << s.h() << "x" << s.w() << "x" << s.c();
  return os.str();
}

// Restores the GEMM micro-kernel dispatch to auto when a trial that pinned it
// leaves scope (normally or by exception).
class GemmIsaGuard {
 public:
  explicit GemmIsaGuard(nn::GemmIsa isa) { ok_ = nn::set_gemm_isa(isa); }
  ~GemmIsaGuard() { nn::set_gemm_isa(nn::GemmIsa::kAuto); }
  bool ok() const { return ok_; }
  GemmIsaGuard(const GemmIsaGuard&) = delete;
  GemmIsaGuard& operator=(const GemmIsaGuard&) = delete;

 private:
  bool ok_ = false;
};

// Same restore-on-exit pattern for the packed int8 GEMM dispatch.
class S8IsaGuard {
 public:
  explicit S8IsaGuard(nn::GemmS8Isa isa) { ok_ = nn::set_gemm_s8_isa(isa); }
  ~S8IsaGuard() { nn::set_gemm_s8_isa(nn::GemmS8Isa::kAuto); }
  bool ok() const { return ok_; }
  S8IsaGuard(const S8IsaGuard&) = delete;
  S8IsaGuard& operator=(const S8IsaGuard&) = delete;

 private:
  bool ok_ = false;
};

// Same restore-on-exit pattern for the fp16 conversion dispatch.
class F16cIsaGuard {
 public:
  explicit F16cIsaGuard(fp16::F16cIsa isa) { ok_ = fp16::set_f16c_isa(isa); }
  ~F16cIsaGuard() { fp16::set_f16c_isa(fp16::F16cIsa::kAuto); }
  bool ok() const { return ok_; }
  F16cIsaGuard(const F16cIsaGuard&) = delete;
  F16cIsaGuard& operator=(const F16cIsaGuard&) = delete;

 private:
  bool ok_ = false;
};

// A trial that cannot run because the pinned kernel build is unavailable;
// the detail becomes the pair's SKIP reason in the report.
TrialResult skipped_trial(const std::string& isa, const char* disable_env = nullptr) {
  TrialResult r;
  r.skipped = true;
  const char* env = disable_env != nullptr ? std::getenv(disable_env) : nullptr;
  r.detail = env != nullptr && env[0] != '\0' && std::string_view(env) != "0"
                 ? isa + " disabled by " + disable_env
                 : isa + " not available on this CPU";
  return r;
}

const char* s8_isa_name(nn::GemmS8Isa isa) {
  switch (isa) {
    case nn::GemmS8Isa::kAuto:
      return "auto";
    case nn::GemmS8Isa::kGeneric:
      return "generic";
    case nn::GemmS8Isa::kAvx2:
      return "avx2";
    case nn::GemmS8Isa::kVnni:
      return "avx-vnni";
    case nn::GemmS8Isa::kAvx512Vnni:
      return "avx512-vnni";
    case nn::GemmS8Isa::kAmx:
      return "amx-int8";
  }
  return "?";
}

// ---------------------------------------------------------------- GEMM pairs

TrialResult gemm_trial_with_isa(std::uint64_t seed, nn::GemmIsa isa) {
  TrialResult r;
  GemmIsaGuard guard(isa);
  if (!guard.ok()) return skipped_trial("avx2+fma");
  Rng rng(seed);
  const std::int64_t m = rng.uniform_int(1, 64);
  // A third of the trials cross the kKc = 256 k-block boundary.
  const std::int64_t k = rng.bernoulli(1.0 / 3.0) ? rng.uniform_int(257, 600)
                                                  : rng.uniform_int(1, 96);
  const std::int64_t n = rng.uniform_int(1, 64);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  nn::gemm(a, b, c, m, k, n);
  const std::vector<double> want = ref_gemm(a, b, m, k, n);
  r.stats = compare_f32(c, want);
  r.output_hash = hash_bits(c);
  std::ostringstream os;
  os << "m=" << m << " k=" << k << " n=" << n;
  r.detail = os.str();
  return r;
}

TrialResult gemm_zero_skip_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t m = rng.uniform_int(1, 48);
  const std::int64_t k = rng.uniform_int(1, 96);
  const std::int64_t n = rng.uniform_int(1, 48);
  // A is overwhelmingly zero — the identity-probe regime this kernel exists for.
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0F);
  for (float& v : a) {
    if (rng.bernoulli(0.06)) v = rng.uniform(-1.0F, 1.0F);
  }
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  nn::gemm_zero_skip(a, b, c, m, k, n);
  r.stats = compare_f32(c, ref_gemm(a, b, m, k, n));
  r.output_hash = hash_bits(c);
  std::ostringstream os;
  os << "m=" << m << " k=" << k << " n=" << n << " sparse";
  r.detail = os.str();
  return r;
}

// u8 x s8 GEMM — a 1x1 conv through the in-place conv micro-kernels (raw
// compensated int32 accumulators, no epilogue) — vs the exact int64
// reference. Zero tolerance: the integer core must be exact whenever the true
// dot fits int32, which [-127, 127] operands at these k always do. Shapes
// deliberately straddle the 16-pixel tiles and their remainders, the
// 16-channel blocks, the 4-channel layout (n <= 4) and the 4- and 16-byte
// k-runs (k-tails, single rows/cols).
TrialResult gemm_s8_trial_with_isa(std::uint64_t seed, nn::GemmS8Isa isa) {
  TrialResult r;
  S8IsaGuard guard(isa);
  if (!guard.ok()) return skipped_trial(s8_isa_name(isa), "SESR_DISABLE_INT8_SIMD");
  Rng rng(seed);
  // The AMX build tiles up to 64 pixels per step, so its pair draws m up to
  // 130: one to four C tiles per step, with every tail length.
  const std::int64_t m = rng.uniform_int(1, isa == nn::GemmS8Isa::kAmx ? 130 : 40);
  const std::int64_t k = rng.uniform_int(1, 160);
  const std::int64_t n = rng.uniform_int(1, 40);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  // Offset-binary activations in [1, 255] (zero point 128), full-range weights.
  for (std::uint8_t& v : a) {
    v = static_cast<std::uint8_t>(rng.uniform_int(-127, 127) + 128);
  }
  for (std::int8_t& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  const std::vector<std::int32_t> colsum = nn::s8_column_sums(b, k, n);
  std::vector<std::int32_t> got(static_cast<std::size_t>(m * n));
  nn::gemm_s8_i32(a, b, colsum, got, m, k, n);
  const std::vector<std::int32_t> want = ref_gemm_s8_i32(a, b, m, k, n);
  std::vector<double> gd(got.begin(), got.end());
  std::vector<double> wd(want.begin(), want.end());
  r.stats = compare_f64(gd, wd);
  r.output_hash = hash_bits_f64(gd);
  std::ostringstream os;
  os << "m=" << m << " k=" << k << " n=" << n;
  r.detail = os.str();
  return r;
}

// ---------------------------------------------------------------- conv pairs

TrialResult conv2d_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t kk = 2 * rng.uniform_int(1, 3) + 1;  // 3, 5, 7
  const bool valid = rng.bernoulli(0.3);
  const std::int64_t stride = (!valid && rng.bernoulli(0.3)) ? 2 : 1;
  const std::int64_t lo = valid ? kk : 4;
  const std::int64_t h = rng.uniform_int(lo, 48);
  const std::int64_t w = rng.uniform_int(lo, 48);
  const std::int64_t in_c = rng.uniform_int(1, 8);
  const std::int64_t out_c = rng.uniform_int(1, 8);
  const Tensor input = random_tensor(rng, rng.uniform_int(1, 2), h, w, in_c);
  const Tensor weight = random_tensor(rng, kk, kk, in_c, out_c);
  const nn::Padding pad = valid ? nn::Padding::kValid : nn::Padding::kSame;
  DTensor want = ref_conv2d(input, weight, nn::conv_geometry(input, weight, pad, stride));
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " k=" << kk << " stride=" << stride
     << (valid ? " valid" : " same");
  Tensor got;
  if (rng.bernoulli(0.5)) {
    got = nn::conv2d(input, weight, pad, stride);
  } else {
    // The served fp32 path: bias and ReLU/PReLU fused into the GEMM store,
    // against a bias add and activation in double.
    const Tensor bias = random_tensor(rng, 1, 1, 1, out_c);
    const Tensor alpha = random_tensor(rng, 1, 1, 1, out_c, -0.5F, 0.5F);
    const bool prelu = rng.bernoulli(0.5);
    const nn::Epilogue epi = prelu ? nn::Epilogue{nn::Epilogue::Act::kPRelu, alpha.raw()}
                                   : nn::Epilogue{nn::Epilogue::Act::kRelu, nullptr};
    got = nn::conv2d_fused(input, weight, &bias, epi, pad, stride);
    for (std::size_t i = 0; i < want.data.size(); ++i) {
      const std::int64_t c = static_cast<std::int64_t>(i) % out_c;
      const double v = want.data[i] + static_cast<double>(bias.raw()[c]);
      want.data[i] = v > 0.0 ? v : (prelu ? static_cast<double>(alpha.raw()[c]) * v : 0.0);
    }
    os << " fused bias " << (prelu ? "prelu" : "relu");
  }
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  r.detail = os.str();
  return r;
}

TrialResult conv2d_1x1_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t h = rng.uniform_int(1, 40);
  const std::int64_t w = rng.uniform_int(1, 40);
  const std::int64_t in_c = rng.uniform_int(1, 16);
  const std::int64_t out_c = rng.uniform_int(1, 16);
  const Tensor input = random_tensor(rng, rng.uniform_int(1, 2), h, w, in_c);
  const Tensor weight = random_tensor(rng, 1, 1, in_c, out_c);
  const Tensor got = nn::conv2d(input, weight, nn::Padding::kSame);
  const DTensor want =
      ref_conv2d(input, weight, nn::conv_geometry(input, weight, nn::Padding::kSame));
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  r.detail = "in=" + shape_str(input.shape()) + " 1x1";
  return r;
}

TrialResult conv2d_zero_skip_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t kk = 2 * rng.uniform_int(1, 2) + 1;  // 3, 5
  const std::int64_t h = rng.uniform_int(kk, 32);
  const std::int64_t w = rng.uniform_int(kk, 32);
  const std::int64_t in_c = rng.uniform_int(1, 8);
  const std::int64_t out_c = rng.uniform_int(1, 8);
  Tensor input(1, h, w, in_c);
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input.raw()[i] = rng.bernoulli(0.05) ? rng.uniform(-1.0F, 1.0F) : 0.0F;
  }
  const Tensor weight = random_tensor(rng, kk, kk, in_c, out_c);
  const bool valid = rng.bernoulli(0.5);
  const nn::Padding pad = valid ? nn::Padding::kValid : nn::Padding::kSame;
  const Tensor got = nn::conv2d_zero_skip(input, weight, pad);
  const DTensor want = ref_conv2d(input, weight, nn::conv_geometry(input, weight, pad));
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " k=" << kk << (valid ? " valid" : " same")
     << " sparse";
  r.detail = os.str();
  return r;
}

// ------------------------------------------------------------ collapse pair

TrialResult collapse_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t kk = 2 * rng.uniform_int(1, 2) + 1;  // 3, 5
  const std::int64_t in_c = rng.uniform_int(1, 4);
  const std::int64_t layers = rng.uniform_int(2, 3);
  std::vector<std::int64_t> ch(static_cast<std::size_t>(layers) + 1);
  ch[0] = in_c;
  for (std::size_t i = 1; i < ch.size(); ++i) ch[i] = rng.uniform_int(1, 8);
  // SESR linear blocks: only the first conv has spatial extent, the rest are
  // 1x1 — exactly the chains Algorithm 1 collapses during training.
  std::vector<Tensor> weights;
  for (std::int64_t l = 0; l < layers; ++l) {
    const std::int64_t lk = l == 0 ? kk : 1;
    const float scale = 1.0F / std::sqrt(static_cast<float>(lk * lk * ch[static_cast<std::size_t>(l)]));
    weights.push_back(random_tensor(rng, lk, lk, ch[static_cast<std::size_t>(l)],
                                    ch[static_cast<std::size_t>(l) + 1], -scale, scale));
  }
  const std::int64_t h = rng.uniform_int(kk, 24);
  const std::int64_t w = rng.uniform_int(kk, 24);
  const Tensor input = random_tensor(rng, 1, h, w, in_c);

  const Tensor collapsed = core::collapse_conv_sequence(weights);
  const Tensor got = nn::conv2d(input, collapsed, nn::Padding::kSame);

  // Reference: push the input through the *expanded* chain entirely in double.
  DTensor want = to_dtensor(input);
  for (const Tensor& wt : weights) {
    const nn::ConvGeometry g = nn::same_geometry(want.shape.h(), want.shape.w(), want.shape.c(),
                                                 wt.shape().dim(0), wt.shape().dim(1));
    want = ref_conv2d(want, wt, g);
  }
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " chain k=" << kk << " L=" << layers;
  r.detail = os.str();
  return r;
}

// ----------------------------------------------------------- network pairs

core::SesrConfig small_config(Rng& rng) {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = rng.bernoulli(0.5) ? 2 : 4;
  config.expand = 16;
  config.prelu = rng.bernoulli(0.5);
  config.input_residual = rng.bernoulli(0.5);
  config.with_bias = false;
  return config;
}

TrialResult tiled_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const core::SesrConfig config = small_config(rng);
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  const core::SesrInference inference(network);
  const std::int64_t h = rng.uniform_int(12, 32);
  const std::int64_t w = rng.uniform_int(12, 32);
  const Tensor input = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  core::TilingOptions options;
  options.tile_h = rng.uniform_int(6, 16);
  options.tile_w = rng.uniform_int(6, 16);
  options.halo = -1;  // exact halo: tiling must reproduce the full frame
  const Tensor got = core::upscale_tiled(inference, input, options);
  const DTensor want = to_dtensor(inference.upscale(input));
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " tile=" << options.tile_h << "x" << options.tile_w
     << " " << config.describe();
  r.detail = os.str();
  return r;
}

// Serve-regime tiling: the sharded server routes arbitrary request shapes
// through upscale_tiled, so this pair sweeps the geometry corners the
// original tiled_inference pair never draws — frames down to 1x1, tiles
// larger than the image, extra halo beyond the receptive field, and extreme
// aspect ratios. Exactness promise: halo >= radius reproduces the full frame.
TrialResult tiled_vs_fullframe_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const core::SesrConfig config = small_config(rng);
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  const core::SesrInference inference(network);
  const std::int64_t regime = rng.uniform_int(0, 2);
  std::int64_t h = 0;
  std::int64_t w = 0;
  if (regime == 0) {  // tiny frames, smaller than any sane tile
    h = rng.uniform_int(1, 6);
    w = rng.uniform_int(1, 6);
  } else if (regime == 1) {  // extreme aspect (row / column strips)
    h = rng.bernoulli(0.5) ? rng.uniform_int(1, 3) : rng.uniform_int(16, 40);
    w = rng.bernoulli(0.5) ? rng.uniform_int(16, 40) : rng.uniform_int(1, 3);
  } else {  // generic
    h = rng.uniform_int(8, 40);
    w = rng.uniform_int(8, 40);
  }
  const Tensor input = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  core::TilingOptions options;
  options.tile_h = rng.uniform_int(1, 48);  // may exceed the image
  options.tile_w = rng.uniform_int(1, 48);
  const std::int64_t radius = core::receptive_field_radius(inference);
  // Exact by construction: radius, or radius plus slack (also exact).
  options.halo = rng.bernoulli(0.5) ? radius : radius + rng.uniform_int(1, 4);
  const Tensor got = core::upscale_tiled(inference, input, options);
  const DTensor want = to_dtensor(inference.upscale(input));
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " tile=" << options.tile_h << "x" << options.tile_w
     << " halo=" << options.halo << " " << config.describe();
  r.detail = os.str();
  return r;
}

// ------------------------------------------------ serve response-cache pair

// A served response-cache hit must be BIT-IDENTICAL to the cold inference
// that populated it, for every execution mode and both precisions. The trial
// spins up a cached one-route ShardedServer at the drawn precision, submits
// the same frame twice (the first run is the cold reference, the second must
// come from the cache — asserted via the server's cache_hits counter), and
// compares bitwise with zero tolerance.
TrialResult cached_vs_cold_serve_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  core::SesrConfig config = small_config(rng);
  config.with_bias = rng.bernoulli(0.5);  // every serve mode handles biased nets
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  const core::SesrInference inference(network);

  const serve::ExecMode modes[] = {serve::ExecMode::kFullFrame, serve::ExecMode::kTiled,
                                   serve::ExecMode::kAuto};
  serve::ServeOptions options;
  options.mode = modes[rng.uniform_int(0, 2)];
  const serve::RouteKey route{"default", config.scale,
                              rng.bernoulli(0.5) ? core::InferencePrecision::kFp16
                                                 : core::InferencePrecision::kFp32};
  options.workers = 1 + static_cast<int>(rng.uniform_int(0, 2));
  options.tiling.tile_h = rng.uniform_int(4, 12);
  options.tiling.tile_w = rng.uniform_int(4, 12);
  options.tiled_threshold_pixels = 10 * 10;  // kAuto: larger trial frames tile
  options.cache_entries = 8;
  serve::NetworkRegistry registry;
  registry.add(route, inference);
  serve::ShardedServer server(registry, options);

  const std::int64_t h = rng.uniform_int(4, 20);
  const std::int64_t w = rng.uniform_int(4, 20);
  const Tensor frame = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  const Tensor cold = server.submit(route, frame).get();  // executes, populates the cache
  const Tensor hit = server.submit(route, frame).get();   // must be served from the cache
  server.shutdown();
  const std::uint64_t cache_hits = server.stats().total.cache_hits;

  const DTensor want = to_dtensor(cold);
  r.stats = compare_f32(hit.data(), want.data);
  r.output_hash = hash_bits(hit.data());
  std::ostringstream os;
  os << "in=" << shape_str(frame.shape()) << " mode=" << static_cast<int>(options.mode)
     << " prec=" << (route.precision == core::InferencePrecision::kFp16 ? "fp16" : "fp32")
     << " workers=" << options.workers << " bias=" << config.with_bias << " "
     << config.describe();
  if (cache_hits != 1) {
    // Without a real hit the bit comparison is vacuous; fail the trial loudly.
    r.stats.max_abs = std::numeric_limits<double>::infinity();
    r.stats.max_ulp = std::numeric_limits<double>::infinity();
    os << " CACHE-MISS(hits=" << cache_hits << ")";
  }
  r.detail = os.str();
  return r;
}

// ------------------------------------------------- video delta-reuse pair

// A video session's tile-delta output must be BIT-IDENTICAL to a full
// re-upscale of the same frame, for every execution mode and all four
// precisions. The trial draws a random mode x precision x temporal pattern,
// serves a synthetic sequence through one ShardedServer twice per frame —
// once as a video session (consecutive seqs, so the delta path engages from
// frame 2 on) and once as a plain non-video submit (always the full
// pipeline, cache disabled) — and compares bitwise with zero tolerance.
// A trial where the delta path never engaged is failed loudly: the bit
// comparison would be vacuous.
TrialResult video_delta_vs_full_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  core::SesrConfig config = small_config(rng);
  config.with_bias = rng.bernoulli(0.5);  // every serve mode handles biased nets
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  core::SesrInference inference(network);
  inference.calibrate_int8({random_tensor(rng, 1, 12, 12, 1, 0.0F, 1.0F)});
  std::vector<core::LayerPrecision> plan(inference.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = core::LayerPrecision::kInt8;
  inference.set_hybrid_plan(std::move(plan));

  const core::InferencePrecision precisions[] = {
      core::InferencePrecision::kFp32, core::InferencePrecision::kFp16,
      core::InferencePrecision::kInt8, core::InferencePrecision::kHybrid};
  const serve::RouteKey key{"v", config.scale, precisions[rng.uniform_int(0, 3)]};
  serve::NetworkRegistry registry;
  registry.add(key, inference);

  const serve::ExecMode modes[] = {serve::ExecMode::kFullFrame, serve::ExecMode::kTiled,
                                   serve::ExecMode::kAuto};
  serve::ServeOptions options;
  options.mode = modes[rng.uniform_int(0, 2)];
  options.workers = 1 + static_cast<int>(rng.uniform_int(0, 2));
  options.tiling.tile_h = rng.uniform_int(4, 12);
  options.tiling.tile_w = rng.uniform_int(4, 12);
  options.tiled_threshold_pixels = 10 * 10;  // kAuto: larger trial frames tile
  options.cache_entries = 0;                 // the reference submits must recompute
  options.video_sessions = 4;
  serve::ShardedServer server(registry, options);

  const data::VideoPattern patterns[] = {data::VideoPattern::kStatic, data::VideoPattern::kPan,
                                         data::VideoPattern::kCut, data::VideoPattern::kSparkle,
                                         data::VideoPattern::kMixed};
  data::VideoSequenceOptions vopts;
  vopts.pattern = patterns[rng.uniform_int(0, 4)];
  vopts.frames = 4;
  vopts.h = rng.uniform_int(16, 24);  // synthesize_image floor is 16x16
  vopts.w = rng.uniform_int(16, 24);
  const std::vector<Tensor> frames = data::synthesize_video(vopts, seed);

  std::vector<float> got;
  std::vector<double> want;
  std::uint64_t delta_frames = 0;
  std::uint64_t reused_tiles = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    serve::VideoOptions video;
    video.session_id = 1;
    video.seq = i + 1;
    serve::AdmitResult admitted = server.submit_video(key, frames[i], video);
    const Tensor delta_hr = admitted.future.get();
    const Tensor full_hr = server.submit(key, frames[i]).get();
    if (admitted.delta) {
      ++delta_frames;
      reused_tiles += admitted.tiles_total - admitted.tiles_recomputed;
    }
    got.insert(got.end(), delta_hr.raw(), delta_hr.raw() + delta_hr.numel());
    const float* f = full_hr.raw();
    for (std::int64_t j = 0; j < full_hr.numel(); ++j) want.push_back(static_cast<double>(f[j]));
  }
  server.shutdown();

  r.stats = compare_f32(got, want);
  r.output_hash = hash_bits(got);
  std::ostringstream os;
  os << "pattern=" << data::to_string(vopts.pattern) << " lr=" << vopts.h << "x" << vopts.w
     << " mode=" << static_cast<int>(options.mode) << " route=" << serve::route_string(key)
     << " workers=" << options.workers << " reused_tiles=" << reused_tiles
     << " bias=" << config.with_bias << " " << config.describe();
  if (delta_frames != frames.size() - 1) {
    // Every frame after the first must take the delta path (same session,
    // consecutive seqs, constant shape). Anything else means the session
    // plumbing is broken and the comparison above proves nothing.
    r.stats.max_abs = std::numeric_limits<double>::infinity();
    r.stats.max_ulp = std::numeric_limits<double>::infinity();
    os << " DELTA-NOT-ENGAGED(frames=" << delta_frames << "/" << frames.size() - 1 << ")";
  }
  r.detail = os.str();
  return r;
}

// -------------------------------------------------- planned-executor pair

// The compiled execution plan must be BIT-IDENTICAL to the direct per-layer
// path it replaced: the plan only changes where intermediate bytes live (one
// packed arena instead of per-layer tensors), never the kernel sequence or
// the arithmetic. The trial draws a random config — including m = 0, whose
// fused long residual degenerates to an in-place doubling, and biased
// checkpoints — a random precision, and a random execution regime (single
// frame, micro-batch, exact-halo tiled, plan-cache churn across 9+ shapes),
// and compares against the same network's full-frame upscale_direct with zero
// tolerance. The tiled regime thereby checks tiling and the plan together
// against the reference.
TrialResult planned_vs_direct_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  core::SesrConfig config;
  config.f = 8;
  config.m = rng.uniform_int(0, 3);
  config.scale = rng.bernoulli(0.5) ? 2 : 4;
  config.expand = 16;
  config.prelu = rng.bernoulli(0.5);
  config.input_residual = rng.bernoulli(0.5);
  config.with_bias = rng.bernoulli(0.5);
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  core::SesrInference planned(network);
  planned.calibrate_int8({random_tensor(rng, 1, 12, 12, 1, 0.0F, 1.0F)});
  std::vector<core::LayerPrecision> plan(planned.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = core::LayerPrecision::kInt8;
  planned.set_hybrid_plan(std::move(plan));
  const core::InferencePrecision precisions[] = {
      core::InferencePrecision::kFp32, core::InferencePrecision::kFp16,
      core::InferencePrecision::kInt8, core::InferencePrecision::kHybrid};
  planned.set_precision(precisions[rng.uniform_int(0, 3)]);

  const std::int64_t regime = rng.uniform_int(0, 3);
  const std::int64_t n = regime == 1 ? rng.uniform_int(2, 4) : 1;
  const std::int64_t h = rng.uniform_int(4, 24);
  const std::int64_t w = rng.uniform_int(4, 24);
  const Tensor input = random_tensor(rng, n, h, w, 1, 0.0F, 1.0F);
  Tensor got;
  Tensor want;
  std::ostringstream os;
  if (regime == 2) {  // exact-halo tiling: every tile runs through the plan
    core::TilingOptions topts;
    topts.tile_h = rng.uniform_int(1, 16);
    topts.tile_w = rng.uniform_int(1, 16);
    topts.halo = core::receptive_field_radius(planned);
    got = core::upscale_tiled(planned, input, topts);
    want = planned.upscale_direct(input);
    os << "tiled tile=" << topts.tile_h << "x" << topts.tile_w;
  } else if (regime == 3) {
    // Churn the bounded plan cache past its capacity so the comparison runs
    // on a freshly recompiled (post-eviction) plan, not the warm one.
    for (std::int64_t i = 0; i < 9; ++i) {
      const Tensor filler = random_tensor(rng, 1, 4 + i, 4, 1, 0.0F, 1.0F);
      got = planned.upscale(filler);
    }
    got = planned.upscale(input);
    want = planned.upscale_direct(input);
    os << "cache-churn";
  } else {  // single frame / stacked micro-batch
    got = planned.upscale(input);
    want = planned.upscale_direct(input);
    os << (regime == 1 ? "batch" : "full");
  }
  const DTensor want_d = to_dtensor(want);
  r.stats = compare_f32(got.data(), want_d.data);
  r.output_hash = hash_bits(got.data());
  os << " in=" << shape_str(input.shape()) << " prec=" << static_cast<int>(planned.precision())
     << " " << config.describe();
  r.detail = os.str();
  return r;
}

// --------------------------------------------------------------- fp16 pairs

// Dispatched (possibly F16C) fp32->fp16->fp32 round trip vs the scalar
// bit-manipulation reference. Exact: the two implementations must agree
// bitwise on every finite input, across the magnitude regimes where the
// rounding rules differ (normals, half-subnormals, underflow-to-zero).
// Non-finite inputs are covered exhaustively by tests/test_fp16.cpp.
TrialResult fp16_roundtrip_trial_with_isa(std::uint64_t seed, fp16::F16cIsa isa) {
  TrialResult r;
  F16cIsaGuard guard(isa);
  if (!guard.ok()) return skipped_trial("f16c", "SESR_DISABLE_F16C");
  Rng rng(seed);
  const std::int64_t n = rng.uniform_int(1, 4096);
  std::vector<float> src(static_cast<std::size_t>(n));
  for (float& v : src) {
    switch (rng.uniform_int(0, 3)) {
      case 0: v = rng.uniform(-1.0F, 1.0F); break;
      case 1: v = rng.uniform(-60000.0F, 60000.0F); break;       // large normals
      case 2: v = rng.uniform(-6e-5F, 6e-5F); break;             // half subnormals
      default: v = rng.uniform(-6e-8F, 6e-8F); break;            // underflow to +-0
    }
  }
  std::vector<fp16::Half> h(static_cast<std::size_t>(n));
  std::vector<float> got(static_cast<std::size_t>(n));
  fp16::convert_to_half(src.data(), h.data(), n);
  fp16::convert_to_float(h.data(), got.data(), n);
  std::vector<double> want(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < src.size(); ++i) {
    want[i] = static_cast<double>(fp16::half_bits_to_float(fp16::float_to_half_bits(src[i])));
  }
  r.stats = compare_f32(got, want);
  r.output_hash = hash_bits(got);
  r.detail = "n=" + std::to_string(n);
  return r;
}

// fp16-storage conv (fp32 accumulate, one output rounding) vs the double
// reference convolution over the SAME binary16-rounded input and weight.
// The residual error is fp32-vs-double accumulation plus the single binary16
// store rounding, bounded by 2^-11 of the accumulator magnitude.
TrialResult conv2d_fp16_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t kk = rng.bernoulli(0.3) ? 1 : 2 * rng.uniform_int(1, 2) + 1;  // 1, 3, 5
  const bool valid = kk > 1 && rng.bernoulli(0.3);
  const std::int64_t lo = valid ? kk : 4;
  const std::int64_t h = rng.uniform_int(lo, 32);
  const std::int64_t w = rng.uniform_int(lo, 32);
  const std::int64_t in_c = rng.uniform_int(1, 8);
  const std::int64_t out_c = rng.uniform_int(1, 8);
  const Tensor input = random_tensor(rng, rng.uniform_int(1, 2), h, w, in_c);
  const Tensor weight = random_tensor(rng, kk, kk, in_c, out_c);
  const nn::Padding pad = valid ? nn::Padding::kValid : nn::Padding::kSame;
  const fp16::HalfTensor hin = fp16::HalfTensor::from_float(input);
  const fp16::HalfTensor hw = fp16::HalfTensor::from_float(weight);
  std::optional<Tensor> bias;
  if (rng.bernoulli(0.5)) bias = random_tensor(rng, 1, 1, 1, out_c);
  const Tensor got =
      nn::conv2d_fp16(hin, hw, bias ? &*bias : nullptr, nn::Epilogue{}, pad).to_float();
  const Tensor rin = hin.to_float();
  const Tensor rw = hw.to_float();
  DTensor want = ref_conv2d(rin, rw, nn::conv_geometry(rin, rw, pad, 1));
  if (bias) {
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(want.data.size()); ++i) {
      want.data[static_cast<std::size_t>(i)] += static_cast<double>(bias->raw()[i % out_c]);
    }
  }
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " k=" << kk << (valid ? " valid" : " same")
     << (bias ? " bias" : "");
  r.detail = os.str();
  return r;
}

// End-to-end collapsed network: fp16 upscale vs the fp32 upscale in double.
// This is the deployment question ("how much quality does fp16 cost?") in
// audit form; the tolerance bounds the layer-by-layer rounding drift through
// m+2 convs, the residual adds and the depth-to-space for [0,1] inputs.
TrialResult collapsed_fp16_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const core::SesrConfig config = small_config(rng);
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  core::SesrInference inference(network);
  const std::int64_t h = rng.uniform_int(8, 24);
  const std::int64_t w = rng.uniform_int(8, 24);
  const Tensor input = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  const DTensor want = to_dtensor(inference.upscale(input));
  inference.set_precision(core::InferencePrecision::kFp16);
  const Tensor got = inference.upscale(input);
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " " << config.describe();
  r.detail = os.str();
  return r;
}

// Runs `run` (an int8 path returning a Tensor) once under every supported
// int8 kernel build and folds each output's error against `want` into `r`;
// the output hash is the first build's, and `os` gets the builds' names.
template <typename Run>
void compare_under_every_s8_isa(TrialResult& r, std::ostringstream& os, const DTensor& want,
                                const Run& run) {
  for (const nn::GemmS8Isa isa :
       {nn::GemmS8Isa::kGeneric, nn::GemmS8Isa::kAvx2, nn::GemmS8Isa::kVnni,
        nn::GemmS8Isa::kAvx512Vnni, nn::GemmS8Isa::kAmx}) {
    S8IsaGuard guard(isa);
    if (!guard.ok()) continue;
    const Tensor got = run();
    os << (r.stats.count == 0 ? "" : ",") << s8_isa_name(isa);
    if (r.stats.count == 0) r.output_hash = hash_bits(got.data());
    r.stats.merge(compare_f32(got.data(), want.data));
  }
}

// Serving-path int8 conv (zero-point-padded image read in place by the u8 x
// s8 micro-kernels, fused dequant/bias/activation store) vs the
// int64-accumulated reference applying the identical epilogue expressions,
// under every supported kernel build. Zero tolerance: any difference means
// the quantized conv drifted from the int8 reference semantics. Half the
// trials draw the served SESR shapes (3x3/5x5, in_c 1 or 16, out_c 4 or 16)
// on rows up to 70 pixels, so a row spans several 16-pixel tiles plus a tail.
TrialResult conv2d_s8_vs_ref_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const bool served = rng.bernoulli(0.5);
  std::int64_t kk = 0;
  std::int64_t in_c = 0;
  std::int64_t out_c = 0;
  std::int64_t w = 0;
  if (served) {
    kk = rng.bernoulli(0.5) ? 3 : 5;
    in_c = rng.bernoulli(0.25) ? 1 : 16;
    out_c = rng.bernoulli(0.5) ? 4 : 16;
    w = rng.uniform_int(4, 70);
  } else {
    kk = rng.bernoulli(0.3) ? 1 : 2 * rng.uniform_int(1, 2) + 1;  // 1, 3, 5
    in_c = rng.uniform_int(1, 8);
    out_c = rng.uniform_int(1, 8);
    w = rng.uniform_int(4, 24);
  }
  const std::int64_t h = rng.uniform_int(4, served ? 12 : 24);
  // Every few trials hit the degenerate-range convention: an all-zero input
  // quantizes at kDegenerateQuantScale, a near-zero one at a tiny but normal
  // scale; both must still match the reference bit for bit.
  const std::int64_t mode = rng.uniform_int(0, 3);
  Tensor input(rng.uniform_int(1, 2), h, w, in_c);
  const char* regime = "dense";
  if (mode == 0) {
    regime = "zero";
  } else if (mode == 1) {
    input.fill_uniform(rng, -1e-20F, 1e-20F);
    regime = "near-zero";
  } else {
    input.fill_uniform(rng, -1.0F, 1.0F);
  }
  Tensor wt = random_tensor(rng, kk, kk, in_c, out_c);
  if (rng.bernoulli(0.1)) {
    // Degenerate channel: all-zero kernel exercises the scale floor.
    for (std::int64_t i = 0; i < wt.numel(); i += out_c) wt.raw()[i] = 0.0F;
  }
  const nn::S8ConvWeights qw = nn::quantize_conv_weights(wt);
  const float act_scale = max_abs(input) > 0.0F ? max_abs(input) / 127.0F
                                                : nn::kDegenerateQuantScale;
  std::optional<Tensor> bias;
  if (rng.bernoulli(0.5)) bias = random_tensor(rng, 1, 1, 1, out_c);
  nn::Epilogue epi;
  Tensor alpha;
  const std::int64_t act = rng.uniform_int(0, 2);
  if (act == 1) {
    epi.act = nn::Epilogue::Act::kRelu;
  } else if (act == 2) {
    alpha = random_tensor(rng, 1, 1, 1, out_c, 0.01F, 0.5F);
    epi.act = nn::Epilogue::Act::kPRelu;
    epi.prelu_alpha = alpha.raw();
  }
  const DTensor want =
      to_dtensor(ref_conv2d_s8(input, act_scale, qw, bias ? &*bias : nullptr, epi));
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " k=" << kk << " out_c=" << out_c
     << " act=" << act << (bias ? " bias" : "") << " " << regime << " isa=";
  compare_under_every_s8_isa(r, os, want, [&] {
    return nn::conv2d_s8(input, act_scale, qw, bias ? &*bias : nullptr, epi,
                         nn::Padding::kSame);
  });
  r.detail = os.str();
  return r;
}

// End-to-end collapsed network in pure int8 vs the fp32 upscale, gated on
// PSNR rather than elementwise error: quantization error is large per element
// but must stay small in aggregate. A trial whose int8-vs-fp32 PSNR falls
// under the floor inflates max_abs past the (loose) elementwise tolerance so
// the sweep fails with the PSNR in its detail string.
TrialResult collapsed_int8_trial(std::uint64_t seed) {
  constexpr double kPsnrFloorDb = 35.0;
  TrialResult r;
  Rng rng(seed);
  const core::SesrConfig config = small_config(rng);
  Rng init = rng.fork();
  const core::SesrNetwork network(config, init);
  core::SesrInference inference(network);
  std::vector<Tensor> calibration;
  const std::int64_t n_cal = rng.uniform_int(1, 2);
  for (std::int64_t i = 0; i < n_cal; ++i) {
    calibration.push_back(random_tensor(rng, 1, 12, 12, 1, 0.0F, 1.0F));
  }
  const std::int64_t h = rng.uniform_int(8, 24);
  const std::int64_t w = rng.uniform_int(8, 24);
  const Tensor input = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  const Tensor want = inference.upscale(input);
  inference.calibrate_int8(calibration);
  inference.set_precision(core::InferencePrecision::kInt8);
  const Tensor got = inference.upscale(input);
  r.stats = compare_f32(got.data(), to_dtensor(want).data);
  const double psnr = ref_psnr(got, want);
  if (psnr < kPsnrFloorDb) r.stats.max_abs = std::numeric_limits<double>::infinity();
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " " << config.describe() << " cal=" << n_cal
     << " psnr=" << psnr;
  r.detail = os.str();
  return r;
}

// End-to-end served int8 network, under every supported kernel build, vs
// ref_int8_upscale: the same calibrated state replayed layer by layer through
// the int64-accumulating conv reference with the same float glue. Zero
// tolerance: any difference means
// the planned int8 path (padded image, fused epilogue, arena reuse, residual and
// shuffle steps) drifted from the per-layer int8 semantics.
TrialResult int8_network_vs_replay_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  core::SesrConfig config = small_config(rng);
  config.with_bias = rng.bernoulli(0.5);
  config.f = rng.bernoulli(0.5) ? 8 : 16;  // 16 = the served SESR width
  Rng init = rng.fork();
  TensorMap map = core::SesrInference(core::SesrNetwork(config, init)).to_tensor_map();
  // Collapsed biases start at zero and PReLU slopes at one constant; random
  // values make the per-channel bias and alpha of the fused store matter.
  for (auto& [name, t] : map) {
    if (name.ends_with(".bias")) t.fill_uniform(rng, -0.2F, 0.2F);
    if (name.ends_with(".alpha")) t.fill_uniform(rng, 0.01F, 0.5F);
  }
  core::SesrInference net(map);
  std::vector<Tensor> calibration;
  const std::int64_t n_cal = rng.uniform_int(1, 2);
  for (std::int64_t i = 0; i < n_cal; ++i) {
    calibration.push_back(random_tensor(rng, 1, 12, 12, 1, 0.0F, 1.0F));
  }
  net.calibrate_int8(calibration);
  net.set_precision(core::InferencePrecision::kInt8);
  const Tensor input = random_tensor(rng, rng.uniform_int(1, 2), rng.uniform_int(4, 16),
                                     rng.uniform_int(4, 16), 1, 0.0F, 1.0F);
  const DTensor want = to_dtensor(ref_int8_upscale(net, input));
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " " << config.describe()
     << " prelu=" << config.prelu << " residual=" << config.input_residual
     << " bias=" << config.with_bias << " cal=" << n_cal << " isa=";
  compare_under_every_s8_isa(r, os, want, [&] { return net.upscale(input); });
  r.detail = os.str();
  return r;
}

// -------------------------------------------------------- data/metric pairs

TrialResult depth_to_space_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t block = rng.uniform_int(2, 3);
  const std::int64_t oc = rng.uniform_int(1, 4);
  const Tensor input = random_tensor(rng, rng.uniform_int(1, 2), rng.uniform_int(1, 12),
                                     rng.uniform_int(1, 12), block * block * oc);
  const Tensor got = nn::depth_to_space(input, block);
  const DTensor want = ref_depth_to_space(to_dtensor(input), block);
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " r=" << block;
  r.detail = os.str();
  return r;
}

TrialResult resize_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t h = rng.uniform_int(4, 24);
  const std::int64_t w = rng.uniform_int(4, 24);
  const std::int64_t c = rng.bernoulli(0.5) ? 1 : 3;
  const std::int64_t out_h = rng.uniform_int(2, 32);
  const std::int64_t out_w = rng.uniform_int(2, 32);
  const Tensor input = random_tensor(rng, 1, h, w, c, 0.0F, 1.0F);
  const Tensor got = data::resize_bicubic(input, out_h, out_w);
  const DTensor want = ref_resize_bicubic(input, out_h, out_w);
  r.stats = compare_f32(got.data(), want.data);
  r.output_hash = hash_bits(got.data());
  std::ostringstream os;
  os << "in=" << shape_str(input.shape()) << " out=" << out_h << "x" << out_w;
  r.detail = os.str();
  return r;
}

TrialResult ssim_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t h = rng.uniform_int(11, 24);
  const std::int64_t w = rng.uniform_int(11, 24);
  // Alternate between generic images and the cancellation regime the SSIM
  // fix targets: flat / near-flat windows where E[x^2] - E[x]^2 collapses.
  const std::int64_t mode = rng.uniform_int(0, 2);
  Tensor a(1, h, w, 1);
  Tensor b(1, h, w, 1);
  const char* regime = "random";
  if (mode == 0) {
    const float base = rng.uniform(0.0F, 1.0F);
    a.fill(base);
    b.fill(base);
    for (std::int64_t i = 0; i < b.numel(); ++i) {
      if (rng.bernoulli(0.1)) b.raw()[i] += rng.uniform(-1e-6F, 1e-6F);
    }
    regime = "near-flat";
  } else {
    a.fill_uniform(rng, 0.0F, 1.0F);
    b = a;
    if (mode == 2) {
      for (std::int64_t i = 0; i < b.numel(); ++i) b.raw()[i] += rng.uniform(-0.05F, 0.05F);
      regime = "perturbed";
    } else {
      regime = "identical";
    }
  }
  const double got = metrics::ssim(a, b);
  const double want = ref_ssim(a, b);
  const std::vector<double> gv{got};
  const std::vector<double> wv{want};
  r.stats = compare_f64(gv, wv);
  r.output_hash = hash_bits_f64(gv);
  std::ostringstream os;
  os << h << "x" << w << " " << regime;
  r.detail = os.str();
  return r;
}

TrialResult psnr_trial(std::uint64_t seed) {
  TrialResult r;
  Rng rng(seed);
  const std::int64_t h = rng.uniform_int(4, 32);
  const std::int64_t w = rng.uniform_int(4, 32);
  Tensor a = random_tensor(rng, 1, h, w, 1, 0.0F, 1.0F);
  Tensor b = a;
  const bool identical = rng.bernoulli(0.25);
  if (!identical) {
    for (std::int64_t i = 0; i < b.numel(); ++i) b.raw()[i] += rng.uniform(-0.1F, 0.1F);
  }
  const double got = metrics::psnr(a, b);
  const double want = ref_psnr(a, b);
  const std::vector<double> gv{got};
  const std::vector<double> wv{want};
  r.stats = compare_f64(gv, wv);
  r.output_hash = hash_bits_f64(gv);
  std::ostringstream os;
  os << h << "x" << w << (identical ? " identical" : " perturbed");
  r.detail = os.str();
  return r;
}

std::vector<AuditPair> make_builtin_pairs() {
  std::vector<AuditPair> pairs;
  pairs.push_back({"gemm_scalar", "register-tiled GEMM, generic micro-kernel, vs double GEMM",
                   1e-4, 256.0,
                   [](std::uint64_t s) { return gemm_trial_with_isa(s, nn::GemmIsa::kGeneric); }});
  pairs.push_back({"gemm_avx2", "register-tiled GEMM, AVX2+FMA micro-kernel, vs double GEMM",
                   1e-4, 256.0,
                   [](std::uint64_t s) { return gemm_trial_with_isa(s, nn::GemmIsa::kAvx2); }});
  pairs.push_back({"gemm_zero_skip", "zero-skipping GEMM on sparse probes vs double GEMM", 1e-4,
                   256.0, gemm_zero_skip_trial});
  pairs.push_back({"conv2d_striped",
                   "striped im2col conv (k in {3,5,7}, strides, SAME/VALID; half fused with "
                   "bias and ReLU/PReLU)",
                   1e-4, 256.0, conv2d_trial});
  pairs.push_back(
      {"conv2d_1x1", "pointwise conv fast path (no im2col)", 1e-5, 64.0, conv2d_1x1_trial});
  pairs.push_back({"conv2d_zero_skip", "zero-skipping conv on sparse inputs", 1e-4, 256.0,
                   conv2d_zero_skip_trial});
  pairs.push_back({"collapse_linear_block",
                   "collapsed kernel vs expanded chain run in double (Algorithm 1)", 5e-4, 512.0,
                   collapse_trial});
  pairs.push_back({"gemm_s8_generic",
                   "u8 x s8 GEMM (1x1 conv), scalar micro-kernel, vs exact int64 reference",
                   0.0, 0.0, [](std::uint64_t s) {
                     return gemm_s8_trial_with_isa(s, nn::GemmS8Isa::kGeneric);
                   }});
  pairs.push_back({"gemm_s8_avx2",
                   "u8 x s8 GEMM (1x1 conv), AVX2 madd_epi16 micro-kernel, vs exact int64 "
                   "reference",
                   0.0, 0.0, [](std::uint64_t s) {
                     return gemm_s8_trial_with_isa(s, nn::GemmS8Isa::kAvx2);
                   }});
  pairs.push_back({"gemm_s8_vnni",
                   "u8 x s8 GEMM (1x1 conv), AVX-VNNI dpbusd micro-kernel, vs exact int64 "
                   "reference",
                   0.0, 0.0, [](std::uint64_t s) {
                     return gemm_s8_trial_with_isa(s, nn::GemmS8Isa::kVnni);
                   }});
  pairs.push_back({"gemm_s8_avx512vnni",
                   "u8 x s8 GEMM (1x1 conv), AVX-512 VNNI dpbusd micro-kernel, vs exact int64 "
                   "reference",
                   0.0, 0.0, [](std::uint64_t s) {
                     return gemm_s8_trial_with_isa(s, nn::GemmS8Isa::kAvx512Vnni);
                   }});
  pairs.push_back({"gemm_s8_amx",
                   "u8 x s8 GEMM (1x1 conv), AMX-INT8 tdpbusd tile kernel, vs exact int64 "
                   "reference",
                   0.0, 0.0, [](std::uint64_t s) {
                     return gemm_s8_trial_with_isa(s, nn::GemmS8Isa::kAmx);
                   }});
  pairs.push_back({"conv2d_int8_vs_ref",
                   "serving-path int8 conv (fused dequant/bias/act) under every supported "
                   "kernel build vs int64 reference with identical epilogue (must be bit-exact)",
                   0.0, 0.0, conv2d_s8_vs_ref_trial});
  pairs.push_back({"collapsed_int8_vs_fp32",
                   "collapsed network pure-int8 upscale vs fp32 upscale, PSNR-gated (>= 35 dB)",
                   1.0, 0.0, collapsed_int8_trial});
  pairs.push_back({"int8_network_vs_replay",
                   "served kInt8 network under every supported kernel build vs per-layer int64 "
                   "conv replay with the same float glue (random bias/PReLU, x2/x4, f 8/16; "
                   "must be bit-exact)",
                   0.0, 0.0, int8_network_vs_replay_trial});
  pairs.push_back({"tiled_inference",
                   "exact-halo tiled upscale vs full-frame upscale (must be bit-exact)", 0.0, 0.0,
                   tiled_trial});
  pairs.push_back({"tiled_vs_fullframe",
                   "serve-regime tiling (tiny/strip frames, tile > image, halo slack) vs full "
                   "frame (must be bit-exact)",
                   0.0, 0.0, tiled_vs_fullframe_trial});
  pairs.push_back({"cached_vs_cold_serve",
                   "response-cache hit vs the cold serve that filled it (all exec modes, both "
                   "precisions; must be bit-exact)",
                   0.0, 0.0, cached_vs_cold_serve_trial});
  pairs.push_back({"video_delta_vs_full",
                   "video-session tile-delta output vs full re-upscale of every frame (all exec "
                   "modes, all four precisions; must be bit-exact)",
                   0.0, 0.0, video_delta_vs_full_trial});
  pairs.push_back({"planned_vs_direct",
                   "compiled execution plan (fused steps, packed arena) vs the direct per-layer "
                   "path (all four precisions; frame/batch/tiled/cache-churn regimes; must be "
                   "bit-exact)",
                   0.0, 0.0, planned_vs_direct_trial});
  pairs.push_back({"fp16_roundtrip_scalar",
                   "fp32->fp16->fp32 round trip, scalar kernels, vs scalar reference (exact)",
                   0.0, 0.0, [](std::uint64_t s) {
                     return fp16_roundtrip_trial_with_isa(s, fp16::F16cIsa::kGeneric);
                   }});
  pairs.push_back({"fp16_roundtrip_f16c",
                   "fp32->fp16->fp32 round trip, F16C kernels, vs scalar reference (exact)", 0.0,
                   0.0, [](std::uint64_t s) {
                     return fp16_roundtrip_trial_with_isa(s, fp16::F16cIsa::kF16c);
                   }});
  pairs.push_back({"conv2d_fp16_vs_fp32",
                   "fp16-storage conv (fp32 accumulate, rounded store) vs double conv on the "
                   "rounded operands",
                   2e-2, 0.0, conv2d_fp16_trial});
  pairs.push_back({"collapsed_fp16_vs_fp32",
                   "collapsed network fp16 upscale vs fp32 upscale (cumulative rounding drift)",
                   1e-2, 0.0, collapsed_fp16_trial});
  pairs.push_back({"depth_to_space", "pixel shuffle vs reference permutation (must be exact)",
                   0.0, 0.0, depth_to_space_trial});
  pairs.push_back({"resize_bicubic",
                   "separable float bicubic vs double MATLAB-convention reference", 1e-5, 64.0,
                   resize_trial});
  pairs.push_back({"ssim", "clamped SSIM vs cancellation-free two-pass reference", 1e-9, 0.0,
                   ssim_trial});
  pairs.push_back({"psnr", "PSNR vs Kahan-summed reference (incl. identical images)", 1e-9, 0.0,
                   psnr_trial});
  return pairs;
}

}  // namespace

const std::vector<AuditPair>& builtin_pairs() {
  static const std::vector<AuditPair> pairs = make_builtin_pairs();
  return pairs;
}

}  // namespace sesr::check
