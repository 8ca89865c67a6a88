// Operator microbenchmarks (google-benchmark): the kernels every experiment
// rides on — GEMM, im2col convolution (vs the naive reference), Algorithm-1
// collapse, residual folding, depth-to-space, and one collapsed SESR-M5
// inference step on a 360p frame, and the served int8 conv per kernel build.
//
// Machine-readable output: pass `--benchmark_format=json` (optionally
// `--benchmark_out=<file> --benchmark_out_format=json`) — the GFLOP/s and
// img/s figures below are emitted as per-benchmark counters in that JSON.
// Thread-count cases read SESR_NUM_THREADS at process start, so run e.g.
// `SESR_NUM_THREADS=4 bench_micro_kernels` to measure the striped conv paths.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/collapse.hpp"
#include "core/linear_block.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/depth_to_space.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_s8.hpp"
#include "nn/init.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace sesr;

void set_gflops_counter(benchmark::State& state, double flops_per_iter) {
  state.counters["GFLOP/s"] = benchmark::Counter(flops_per_iter * state.iterations(),
                                                 benchmark::Counter::kIsRate,
                                                 benchmark::Counter::kIs1000);
}

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  for (auto _ : state) {
    nn::gemm(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The SESR-typical GEMM: one 3x3 16->16 conv layer on a 64x64 patch after
// im2col is m = 64*64 = 4096 rows, k = 9*16 = 144, n = 16. Dense tiled kernel
// vs the zero-skip kernel (kept for Algorithm-1 identity probes) on the same
// dense operands — the gap is the cost the old default paid on real data.
void BM_GemmSesrShape(benchmark::State& state) {
  const std::int64_t m = 4096, k = 144, n = 16;
  Rng rng(21);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  for (auto _ : state) {
    nn::gemm(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  set_gflops_counter(state, 2.0 * static_cast<double>(m * k * n));
}
BENCHMARK(BM_GemmSesrShape);

void BM_GemmZeroSkipSesrShape(benchmark::State& state) {
  const std::int64_t m = 4096, k = 144, n = 16;
  Rng rng(22);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
  for (auto _ : state) {
    nn::gemm_zero_skip(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  set_gflops_counter(state, 2.0 * static_cast<double>(m * k * n));
}
BENCHMARK(BM_GemmZeroSkipSesrShape);

void BM_Conv2dGemmPath(benchmark::State& state) {
  const auto hw = state.range(0);
  Rng rng(2);
  Tensor x(1, hw, hw, 16);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::he_normal_kernel(3, 3, 16, 16, rng);
  for (auto _ : state) {
    Tensor y = nn::conv2d(x, w, nn::Padding::kSame);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * hw * hw * 9 * 16 * 16);
}
BENCHMARK(BM_Conv2dGemmPath)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv2dNaive(benchmark::State& state) {
  const auto hw = state.range(0);
  Rng rng(3);
  Tensor x(1, hw, hw, 16);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::he_normal_kernel(3, 3, 16, 16, rng);
  for (auto _ : state) {
    Tensor y = nn::conv2d_naive(x, w, nn::Padding::kSame);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * hw * hw * 9 * 16 * 16);
}
BENCHMARK(BM_Conv2dNaive)->Arg(32)->Arg(64);

// 1x1 stride-1 convs skip im2col entirely (NHWC makes the lowered matrix the
// input itself). This is the expand layer of every linear block.
void BM_Conv1x1FastPath(benchmark::State& state) {
  const auto hw = state.range(0);
  Rng rng(23);
  Tensor x(1, hw, hw, 64);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::he_normal_kernel(1, 1, 64, 16, rng);
  Tensor bias(1, 1, 1, 16);
  bias.fill_uniform(rng, -0.1F, 0.1F);
  for (auto _ : state) {
    Tensor y = nn::conv2d_bias(x, w, bias, nn::Padding::kSame);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * hw * hw * 64 * 16);
  set_gflops_counter(state, 2.0 * static_cast<double>(hw * hw * 64 * 16));
  state.counters["img/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv1x1FastPath)->Arg(64)->Arg(180);

// Single-image (N=1) 3x3 conv on a 360p frame: the latency-critical inference
// case the row-striped im2col path exists for. Run with SESR_NUM_THREADS=1
// and =4 and compare img/s — the stripes give intra-image scaling where the
// old per-image parallelism had nothing to hand out at N=1.
void BM_ConvStripedN1(benchmark::State& state) {
  Rng rng(24);
  Tensor x(1, 360, 640, 16);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::he_normal_kernel(3, 3, 16, 16, rng);
  for (auto _ : state) {
    Tensor y = nn::conv2d(x, w, nn::Padding::kSame);
    benchmark::DoNotOptimize(y.raw());
  }
  const double macs = 360.0 * 640.0 * 9.0 * 16.0 * 16.0;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(macs));
  set_gflops_counter(state, 2.0 * macs);
  state.counters["img/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(ThreadPool::global().worker_count() + 1);
}
BENCHMARK(BM_ConvStripedN1)->Unit(benchmark::kMillisecond);

void BM_CollapseLinearBlock(benchmark::State& state) {
  // Algorithm 1 on the paper's production geometry: 3x3, 16 -> 256 -> 16.
  Rng rng(4);
  Tensor w1 = nn::he_normal_kernel(3, 3, 16, 256, rng);
  Tensor w2 = nn::he_normal_kernel(1, 1, 256, 16, rng);
  const std::array<Tensor, 2> weights{w1, w2};
  for (auto _ : state) {
    Tensor wc = core::collapse_conv_sequence(weights);
    benchmark::DoNotOptimize(wc.raw());
  }
}
BENCHMARK(BM_CollapseLinearBlock);

void BM_CollapseFirst5x5(benchmark::State& state) {
  Rng rng(5);
  Tensor w1 = nn::he_normal_kernel(5, 5, 1, 256, rng);
  Tensor w2 = nn::he_normal_kernel(1, 1, 256, 16, rng);
  const std::array<Tensor, 2> weights{w1, w2};
  for (auto _ : state) {
    Tensor wc = core::collapse_conv_sequence(weights);
    benchmark::DoNotOptimize(wc.raw());
  }
}
BENCHMARK(BM_CollapseFirst5x5);

void BM_ResidualFold(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    Tensor w = nn::he_normal_kernel(3, 3, 16, 16, rng);
    core::add_residual_identity(w);
    benchmark::DoNotOptimize(w.raw());
  }
}
BENCHMARK(BM_ResidualFold);

void BM_DepthToSpace(benchmark::State& state) {
  const auto hw = state.range(0);
  Rng rng(7);
  Tensor x(1, hw, hw, 4);
  x.fill_uniform(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = nn::depth_to_space(x, 2);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_DepthToSpace)->Arg(180)->Arg(360);

void BM_SesrM5Inference360p(benchmark::State& state) {
  // One collapsed SESR-M5 x2 pass over a 640x360 frame (the Fig. 1(a) task).
  Rng rng(8);
  core::SesrNetwork net(core::sesr_m5(2), rng);
  core::SesrInference deployed(net);
  Rng xrng(9);
  Tensor x(1, 360, 640, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = deployed.upscale(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * 13520LL * 360 * 640);
}
BENCHMARK(BM_SesrM5Inference360p)->Unit(benchmark::kMillisecond);

void BM_TrainingStepCollapsedMode(benchmark::State& state) {
  Rng rng(10);
  core::SesrConfig cfg = core::sesr_m5(2);
  cfg.mode = core::BlockMode::kCollapsedForward;
  core::SesrNetwork net(cfg, rng);
  Rng xrng(11);
  Tensor x(2, 16, 16, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  Tensor g(2, 32, 32, 1);
  g.fill_uniform(xrng, -1.0F, 1.0F);
  for (auto _ : state) {
    nn::zero_gradients(net.parameters());
    Tensor y = net.forward(x, true);
    net.backward(g);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_TrainingStepCollapsedMode)->Unit(benchmark::kMillisecond);

// --- fp16 conversion + GEMM --------------------------------------------------

void BM_Fp16ConvertToHalf(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(12);
  std::vector<float> src(static_cast<std::size_t>(n));
  std::vector<fp16::Half> dst(src.size());
  for (float& v : src) v = rng.uniform(-4.0F, 4.0F);
  for (auto _ : state) {
    fp16::convert_to_half(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  // 4 bytes read + 2 written per element.
  state.SetBytesProcessed(state.iterations() * n * 6);
}
BENCHMARK(BM_Fp16ConvertToHalf)->Arg(4096)->Arg(1 << 20);

void BM_Fp16ConvertToFloat(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(13);
  std::vector<float> tmp(static_cast<std::size_t>(n));
  std::vector<fp16::Half> src(tmp.size());
  std::vector<float> dst(tmp.size());
  for (float& v : tmp) v = rng.uniform(-4.0F, 4.0F);
  fp16::convert_to_half(tmp.data(), src.data(), n);
  for (auto _ : state) {
    fp16::convert_to_float(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n * 6);
}
BENCHMARK(BM_Fp16ConvertToFloat)->Arg(4096)->Arg(1 << 20);

struct HalfRows {
  const fp16::Half* a;
  std::int64_t k;
};

const float* half_row(const void* ctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                      float* buf) {
  const auto& s = *static_cast<const HalfRows*>(ctx);
  fp16::convert_to_float(s.a + row * s.k + p0, buf, kc);
  return buf;
}

void BM_GemmFp16wSesrShape(benchmark::State& state) {
  // The fp16-storage counterpart of BM_GemmSesrShape: same flops, half the
  // operand bytes, staging through the F16C widening kernels.
  const std::int64_t m = 4096, k = 144, n = 16;
  Rng rng(23);
  std::vector<float> af(static_cast<std::size_t>(m * k));
  std::vector<float> bf(static_cast<std::size_t>(k * n));
  for (float& v : af) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : bf) v = rng.uniform(-1.0F, 1.0F);
  std::vector<fp16::Half> a(af.size());
  std::vector<fp16::Half> b(bf.size());
  fp16::convert_to_half(af.data(), a.data(), static_cast<std::int64_t>(af.size()));
  fp16::convert_to_half(bf.data(), b.data(), static_cast<std::int64_t>(bf.size()));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const HalfRows rows{a.data(), k};
  for (auto _ : state) {
    nn::gemm_rows(half_row, &rows, b, {}, c, m, k, n, nn::Epilogue{});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  set_gflops_counter(state, 2.0 * static_cast<double>(m * k * n));
}
BENCHMARK(BM_GemmFp16wSesrShape);

// The int8 benches take an nn::GemmS8Isa build as their last argument and
// pin it for the run; a build this CPU lacks reports an error row.
class S8IsaPin {
 public:
  explicit S8IsaPin(benchmark::State& state, int arg) {
    ok_ = nn::set_gemm_s8_isa(static_cast<nn::GemmS8Isa>(state.range(arg)));
    if (!ok_) state.SkipWithError("int8 kernel build not available on this CPU");
  }
  ~S8IsaPin() { nn::set_gemm_s8_isa(nn::GemmS8Isa::kAuto); }
  S8IsaPin(const S8IsaPin&) = delete;
  S8IsaPin& operator=(const S8IsaPin&) = delete;
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

const std::vector<std::int64_t> kS8Isas = benchmark::CreateDenseRange(
    static_cast<int>(nn::GemmS8Isa::kGeneric), static_cast<int>(nn::GemmS8Isa::kAmx), 1);

// The three SESR conv shapes (5x5 1->16, 3x3 16->16, 5x5 16->4) through the
// served int8 conv on a 64x64 input: the quantize pass into the padded u8
// image, the in-place kernels and the fused dequant + bias + PReLU store.
// range(0) picks the shape, range(1) the build. Run with SESR_NUM_THREADS=1
// for per-layer kernel numbers, e.g.
//   SESR_NUM_THREADS=1 bench_micro_kernels --benchmark_filter='S8|Int8'
void BM_ConvS8SesrShapes(benchmark::State& state) {
  struct ConvShape {
    std::int64_t k, in_c, out_c;
    const char* name;
  };
  constexpr ConvShape kShapes[] = {
      {5, 1, 16, "5x5 1->16"}, {3, 16, 16, "3x3 16->16"}, {5, 16, 4, "5x5 16->4"}};
  const ConvShape& s = kShapes[state.range(0)];
  const S8IsaPin pin(state, 1);
  if (!pin.ok()) return;
  const std::int64_t hw = 64;
  Rng rng(31);
  Tensor x(1, hw, hw, s.in_c);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(s.k, s.k, s.in_c, s.out_c);
  w.fill_uniform(rng, -0.5F, 0.5F);
  const nn::S8ConvWeights q = nn::quantize_conv_weights(w);
  Tensor bias(1, 1, 1, s.out_c);
  bias.fill_uniform(rng, -0.1F, 0.1F);
  std::vector<float> alpha(static_cast<std::size_t>(s.out_c), 0.25F);
  nn::Epilogue epi;
  epi.act = nn::Epilogue::Act::kPRelu;
  epi.prelu_alpha = alpha.data();
  Tensor out(1, hw, hw, s.out_c);
  nn::S8ConvOutput target;
  target.f32 = out.raw();
  for (auto _ : state) {
    nn::conv2d_s8_into(x.raw(), x.shape(), 1.0F / 127.0F, q, &bias, epi, nn::Padding::kSame,
                       target);
    benchmark::DoNotOptimize(out.raw());
    benchmark::ClobberMemory();
  }
  const std::int64_t macs = hw * hw * s.k * s.k * s.in_c * s.out_c;
  state.SetItemsProcessed(state.iterations() * macs);
  state.counters["GMAC/s"] = benchmark::Counter(static_cast<double>(macs * state.iterations()),
                                                benchmark::Counter::kIsRate,
                                                benchmark::Counter::kIs1000);
  state.SetLabel(std::string(s.name) + " " + nn::gemm_s8_kernel_name());
}
BENCHMARK(BM_ConvS8SesrShapes)->ArgsProduct({{0, 1, 2}, kS8Isas})->ArgNames({"shape", "isa"});

// One calibrated SESR-M5 x2 int8 frame at 64x64 through the planned executor
// (the served int8 route's small frame), per build in range(0).
void BM_SesrM5Int8Frame64(benchmark::State& state) {
  const S8IsaPin pin(state, 0);
  if (!pin.ok()) return;
  Rng rng(16);
  core::SesrNetwork net(core::sesr_m5(2), rng);
  core::SesrInference deployed(net);
  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) {
    Tensor c(1, 32, 32, 1);
    c.fill_uniform(rng, 0.0F, 1.0F);
    calib.push_back(std::move(c));
  }
  deployed.calibrate_int8(calib);
  deployed.set_precision(core::InferencePrecision::kInt8);
  Tensor x(1, 64, 64, 1);
  x.fill_uniform(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = deployed.upscale(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetLabel(nn::gemm_s8_kernel_name());
}
BENCHMARK(BM_SesrM5Int8Frame64)->ArgsProduct({kS8Isas})->ArgNames({"isa"});

void BM_SesrM5Fp16Inference360p(benchmark::State& state) {
  Rng rng(14);
  core::SesrNetwork net(core::sesr_m5(2), rng);
  core::SesrInference deployed(net);
  deployed.set_precision(core::InferencePrecision::kFp16);
  Rng xrng(15);
  Tensor x(1, 360, 640, 1);
  x.fill_uniform(xrng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = deployed.upscale(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * 13520LL * 360 * 640);
}
BENCHMARK(BM_SesrM5Fp16Inference360p)->Unit(benchmark::kMillisecond);

// Console output as usual, plus a BenchJson row per run so SESR_BENCH_JSON
// captures ns/op (and GB/s where SetBytesProcessed is in play) — the reason
// this binary has its own main instead of benchmark::benchmark_main.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(sesr::bench::BenchJson* json, int threads)
      : json_(json), threads_(threads) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9
              : 0.0;
      const auto bytes = run.counters.find("bytes_per_second");
      const double gb_per_s = bytes != run.counters.end() ? bytes->second.value / 1e9 : 0.0;
      json_->add(run.benchmark_name(), ns_per_op, gb_per_s, threads_);
    }
  }

 private:
  sesr::bench::BenchJson* json_;
  int threads_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  int threads = 1;
  if (const char* env = std::getenv("SESR_NUM_THREADS")) {
    const long t = std::strtol(env, nullptr, 10);
    if (t > 0) threads = static_cast<int>(t);
  }
  sesr::bench::BenchJson json("micro_kernels");
  JsonCaptureReporter reporter(&json, threads);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
