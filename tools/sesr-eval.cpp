// sesr_eval — evaluate a collapsed SESR checkpoint (or bicubic) on the six
// synthetic benchmark sets, optionally per precision or through the tiled path.
//
//   sesr_eval --model=sesr_model.collapsed.ckpt
//   sesr_eval --model=... --precision=all
//   sesr_eval --model=... --tiled --tile=64
//   sesr_eval --bicubic --scale=2
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/tiled_inference.hpp"
#include "data/resize.hpp"
#include "metrics/evaluate.hpp"

using namespace sesr;

int main(int argc, char** argv) {
  cli::Args args(
      {
          {"model", "", "collapsed checkpoint path (omit with --bicubic)"},
          {"bicubic", "", "evaluate the bicubic baseline instead of a model"},
          {"scale", "2", "scale for --bicubic (checkpoints carry their own)"},
          {"image-size", "64", "HR edge length of the synthetic eval sets"},
          {"full", "", "use the larger (non-reduced) set sizes"},
          {"precision", "", "per-precision summary: fp32|fp16|int8|hybrid|all (full-frame)"},
          {"tiled", "", "run tile-by-tile with an exact halo"},
          {"tile", "32", "tile size for --tiled"},
          {"help", "", "show this help"},
      },
      argc, argv);
  if (args.get_flag("help")) {
    args.usage("sesr_eval", "evaluate a collapsed SESR checkpoint on the six benchmark sets");
    return 0;
  }

  try {
    const auto sets = data::make_benchmark_sets(args.get_int("image-size"),
                                                /*reduced=*/!args.get_flag("full"));
    metrics::Upscaler upscaler;
    std::int64_t scale = args.get_int("scale");

    if (args.get_flag("bicubic")) {
      upscaler = [scale](const Tensor& lr_img) { return data::upscale_bicubic(lr_img, scale); };
      std::printf("evaluating: bicubic x%lld\n", static_cast<long long>(scale));
    } else {
      if (args.get("model").empty()) {
        throw std::invalid_argument("--model is required (or pass --bicubic)");
      }
      auto net = std::make_shared<core::SesrInference>(load_tensors(args.get("model")));
      scale = net->config().scale;
      std::printf("evaluating: %s (%lld params)\n", net->name().c_str(),
                  static_cast<long long>(net->parameter_count()));
      const std::string precision = args.get("precision");
      if (!precision.empty()) {
        // Per-precision summary: one row per arithmetic mode, quality
        // aggregated over every set (image-weighted) plus mean wall time per
        // frame. Full-frame path only; --tiled is ignored here.
        if (precision != "fp32" && precision != "fp16" && precision != "int8" &&
            precision != "hybrid" && precision != "all") {
          throw std::invalid_argument("--precision must be fp32|fp16|int8|hybrid|all");
        }
        const std::vector<std::string> modes =
            precision == "all" ? std::vector<std::string>{"fp32", "fp16", "int8", "hybrid"}
                               : std::vector<std::string>{precision};
        // Native int8 calibration set: the first benchmark set's LR frames
        // (shared by the int8 and hybrid rows; the hybrid planner also needs
        // the HR targets for its PSNR budget).
        std::vector<Tensor> calib_lr;
        std::vector<Tensor> calib_hr;
        auto ensure_calibrated = [&]() {
          if (net->int8_calibrated()) return;
          calib_hr.assign(sets.front().hr.begin(), sets.front().hr.end());
          for (const Tensor& t : calib_hr) calib_lr.push_back(data::downscale_bicubic(t, scale));
          net->calibrate_int8(calib_lr);
        };
        std::printf("\n%-10s %10s %8s %10s\n", "precision", "PSNR", "SSIM", "ms/frame");
        for (const std::string& mode : modes) {
          metrics::Upscaler base;
          if (mode == "int8" || mode == "hybrid") {
            ensure_calibrated();
            if (mode == "hybrid" && net->hybrid_plan().empty()) {
              const core::HybridPlanReport plan =
                  core::plan_hybrid_precision(*net, calib_lr, calib_hr);
              std::printf("hybrid plan: %lld/%zu int8 layers, calib drop %.3f dB "
                          "(%lld plans scored)\n",
                          static_cast<long long>(plan.int8_layers), plan.plan.size(),
                          plan.drop_db, static_cast<long long>(plan.evaluated));
            }
            net->set_precision(mode == "int8" ? core::InferencePrecision::kInt8
                                              : core::InferencePrecision::kHybrid);
            base = [net](const Tensor& lr_img) { return net->upscale(lr_img); };
          } else {
            net->set_precision(mode == "fp16" ? core::InferencePrecision::kFp16
                                              : core::InferencePrecision::kFp32);
            base = [net](const Tensor& lr_img) { return net->upscale(lr_img); };
          }
          double total_ms = 0.0;
          std::int64_t frames = 0;
          const metrics::Upscaler timed = [&total_ms, &frames, base](const Tensor& lr_img) {
            const auto t0 = std::chrono::steady_clock::now();
            Tensor out = base(lr_img);
            total_ms +=
                std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
            ++frames;
            return out;
          };
          double psnr_sum = 0.0;
          double ssim_sum = 0.0;
          std::int64_t images = 0;
          for (const auto& score : metrics::evaluate_on_sets(timed, sets, scale)) {
            psnr_sum += score.psnr * static_cast<double>(score.images);
            ssim_sum += score.ssim * static_cast<double>(score.images);
            images += score.images;
          }
          std::printf("%-10s %9.2f %8.4f %9.2f\n", mode.c_str(),
                      psnr_sum / static_cast<double>(images),
                      ssim_sum / static_cast<double>(images),
                      total_ms / static_cast<double>(frames));
        }
        net->set_precision(core::InferencePrecision::kFp32);
        return 0;
      }
      if (args.get_flag("tiled")) {
        core::TilingOptions options;
        options.tile_h = options.tile_w = args.get_int("tile");
        std::printf("mode: tiled %lldx%lld, exact halo %lld\n",
                    static_cast<long long>(options.tile_h),
                    static_cast<long long>(options.tile_w),
                    static_cast<long long>(core::receptive_field_radius(*net)));
        upscaler = [net, options](const Tensor& lr_img) {
          return core::upscale_tiled(*net, lr_img, options);
        };
      } else {
        upscaler = [net](const Tensor& lr_img) { return net->upscale(lr_img); };
      }
    }

    std::printf("\n%-12s %8s %10s %8s\n", "dataset", "images", "PSNR", "SSIM");
    for (const auto& score : metrics::evaluate_on_sets(upscaler, sets, scale)) {
      std::printf("%-12s %8lld %9.2f %8.4f\n", score.dataset.c_str(),
                  static_cast<long long>(score.images), score.psnr, score.ssim);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
