// Deployment study: what actually ships to the NPU.
//
// Extends the paper's Table 3 premise (the Ethos-N78 executes int8) with the
// functional counterparts the paper does not spell out:
//   1. post-training int8 quantization of the collapsed SESR (the served
//      kInt8 path: per-channel s8 weights, calibrated activation scales) —
//      PSNR loss vs the float network;
//   2. functional tiling (Section 5.6): exactness with a full halo, the
//      compute overhead of that halo, and quality with truncated halos.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/tiled_inference.hpp"
#include "data/synthetic.hpp"
#include "metrics/psnr.hpp"
#include "tensor/tensor_ops.hpp"

using namespace sesr;

namespace {

// Best-of-N wall time per call, in milliseconds.
template <typename Fn>
double best_ms(int iters, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("Deployment — int8 quantization, functional tiling",
                      "Table 3 premise + Section 5.6 boundary-correctness remark");
  data::SrDataset corpus = bench::training_corpus(2);
  Rng rng(7);
  core::SesrNetwork net(core::sesr_m5(2), rng);
  bench::TrainSpec spec;
  bench::train_model(net, corpus, spec);
  core::SesrInference deployed(net);

  // Evaluation image and calibration set.
  Rng irng(11);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 96, 96, irng);
  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) {
    calib.push_back(data::synthesize_image(data::ImageFamily::kObjects, 48, 48, irng));
  }
  auto [lr_img, hr_img] = corpus.image_pair(0);

  // --- int8 ------------------------------------------------------------------
  const Tensor float_out = deployed.upscale(lr_img);
  deployed.calibrate_int8(calib);
  deployed.set_precision(core::InferencePrecision::kInt8);
  const Tensor int8_out = deployed.upscale(lr_img);
  deployed.set_precision(core::InferencePrecision::kFp32);
  // What ships: one s8 value per weight plus one fp32 scale per output channel.
  std::int64_t int8_bytes = 0;
  for (const nn::S8ConvWeights& w : deployed.s8_weights()) {
    int8_bytes += static_cast<std::int64_t>(w.values.size() + w.scale.size() * sizeof(float));
  }
  std::printf("int8 weights: %lld bytes incl. per-channel scales (float: %lld)\n",
              static_cast<long long>(int8_bytes),
              static_cast<long long>(deployed.parameter_count() * 4));
  std::printf("PSNR vs ground truth:  float %.2f dB   int8 %.2f dB   (delta %+.3f dB)\n",
              metrics::psnr_shaved(float_out, hr_img, 2),
              metrics::psnr_shaved(int8_out, hr_img, 2),
              metrics::psnr_shaved(int8_out, hr_img, 2) -
                  metrics::psnr_shaved(float_out, hr_img, 2));
  std::printf("int8-vs-float agreement: %.1f dB\n\n", metrics::psnr(int8_out, float_out));

  // --- fp16 ------------------------------------------------------------------
  deployed.set_precision(core::InferencePrecision::kFp16);
  const Tensor fp16_out = deployed.upscale(lr_img);
  deployed.set_precision(core::InferencePrecision::kFp32);
  const double fp16_delta = metrics::psnr_shaved(fp16_out, hr_img, 2) -
                            metrics::psnr_shaved(float_out, hr_img, 2);
  std::printf("fp16 weights: %lld bytes (binary16 storage, fp32 accumulate)\n",
              static_cast<long long>(deployed.parameter_count() * 2));
  std::printf("PSNR vs ground truth:  float %.2f dB   fp16 %.2f dB   (delta %+.3f dB; "
              "budget |delta| <= 0.05)\n",
              metrics::psnr_shaved(float_out, hr_img, 2),
              metrics::psnr_shaved(fp16_out, hr_img, 2), fp16_delta);
  std::printf("fp16-vs-float agreement: %.1f dB\n\n", metrics::psnr(fp16_out, float_out));

  // --- int8 / hybrid speed ---------------------------------------------------
  // The pack-free u8 x s8 conv kernels behind SesrInference::set_precision, calibrated
  // above. Two bars ride in the JSON rows:
  //   int8  — full-frame single-thread SESR-M5 x2 >= 1.8x fp32;
  //   hybrid — planner-reported Y-PSNR drop <= 0.3 dB at the default budget.
  bench::BenchJson json("deployment_int8");
  std::vector<Tensor> plan_lr;
  std::vector<Tensor> plan_hr;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, corpus.size()); ++i) {
    auto [lr, hr] = corpus.image_pair(i);
    plan_lr.push_back(std::move(lr));
    plan_hr.push_back(std::move(hr));
  }
  const core::HybridPlanReport plan = core::plan_hybrid_precision(deployed, plan_lr, plan_hr);
  std::printf("hybrid plan: %lld/%zu int8 layers, Y-PSNR drop %.3f dB "
              "(budget 0.3, %lld plans scored)\n",
              static_cast<long long>(plan.int8_layers), plan.plan.size(), plan.drop_db,
              static_cast<long long>(plan.evaluated));
  json.add("m5_x2/hybrid_psnr_drop_db", plan.drop_db, 0.0, 1);

  const int prec_iters = bench::fast_mode() ? 2 : 5;
  const Tensor timing_frame = image;  // 96x96 natural, full-frame
  double fp32_ms = 0.0;
  double int8_ms = 0.0;
  std::printf("%-7s %10s %9s %16s\n", "prec", "ms/frame", "vs fp32", "PSNR vs fp32 (dB)");
  for (const char* prec : {"fp32", "fp16", "int8", "hybrid"}) {
    const std::string p(prec);
    deployed.set_precision(p == "fp16"   ? core::InferencePrecision::kFp16
                           : p == "int8" ? core::InferencePrecision::kInt8
                           : p == "hybrid" ? core::InferencePrecision::kHybrid
                                           : core::InferencePrecision::kFp32);
    const double ms = best_ms(prec_iters, [&] {
      volatile float v = deployed.upscale(timing_frame).raw()[0];
      (void)v;
    });
    const Tensor out = deployed.upscale(lr_img);
    if (p == "fp32") fp32_ms = ms;
    if (p == "int8") int8_ms = ms;
    std::printf("%-7s %10.2f %8.2fx %16.1f\n", prec, ms, fp32_ms / ms,
                p == "fp32" ? 99.0 : metrics::psnr(out, float_out));
    json.add(std::string("m5_x2/") + prec + "/full/t1", ms * 1e6, 0.0, 1);
  }
  deployed.set_precision(core::InferencePrecision::kFp32);
  json.add("m5_x2/int8_speedup_vs_fp32", fp32_ms / int8_ms, 0.0, 1);
  std::printf("SESR-M5 x2 full-frame single-thread: int8 %.2f ms vs fp32 %.2f ms = %.2fx "
              "(target >= 1.8x)\n\n",
              int8_ms, fp32_ms, fp32_ms / int8_ms);

  // --- tiling ----------------------------------------------------------------
  const Tensor full = deployed.upscale(image);
  const std::int64_t radius = core::receptive_field_radius(deployed);
  std::printf("receptive-field radius: %lld px -> exact-tiling halo\n",
              static_cast<long long>(radius));
  std::printf("%8s %10s %18s %14s\n", "halo", "max|err|", "agreement (dB)", "LR overhead");
  for (const std::int64_t halo : {radius, radius / 2, std::int64_t{2}, std::int64_t{0}}) {
    core::TilingOptions options;
    options.tile_h = options.tile_w = 32;
    options.halo = halo;
    const Tensor tiled = core::upscale_tiled(deployed, image, options);
    const float err = max_abs_diff(tiled, full);
    std::printf("%8lld %10.2e %18.1f %13.2fx\n", static_cast<long long>(halo),
                static_cast<double>(err), err == 0.0F ? 99.0 : metrics::psnr(tiled, full),
                core::tiling_compute_overhead(image.shape().h(), image.shape().w(), options,
                                              halo));
  }
  std::printf("(paper Sec. 5.6: tiling needs 'boundary overhead ... to maintain the\n"
              " functional correctness' — the halo column quantifies it.)\n");

  return 0;
}
