// Collapsed SESR for deployment (paper Fig. 2(d)).
//
// After training, every linear block collapses (Algorithm 1) and every short
// residual folds into its kernel (Algorithm 2), leaving a VGG-like network of
// m+2 narrow convolutions, the activations, the two long residuals, and the
// depth-to-space. This class holds exactly that: plain kernels, no expanded
// weights, forward-only — what one would ship to an NPU.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sesr_network.hpp"
#include "nn/conv2d_s8.hpp"
#include "tensor/fp16.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core {

namespace plan {
class PlannedExecutor;
}

// Broadcast-add the (N, H, W, 1) input onto every channel of the pre-shuffle
// output: out[p * out_c + c] += in[p] — the paper's long "black" residual.
// One definition shared by every precision path and the planned executor.
void add_input_residual(float* out, const float* input, std::int64_t pixels,
                        std::int64_t out_c);

struct CollapsedConv {
  Tensor weight;                // HWIO
  std::optional<Tensor> bias;   // (1, 1, 1, out_c)
};

// Arithmetic mode of the collapsed forward pass. kFp16 stores weights and
// inter-layer activations as binary16 (halving the conv working-set traffic)
// while every dot product still accumulates in fp32; biases, PReLU slopes,
// the residual adds and the depth-to-space stay in fp32 arithmetic, with one
// binary16 rounding per stored activation. kInt8 runs every conv through the
// quantized u8 x s8 GEMM (per-output-channel weight scales, calibrated
// per-tensor activation scales; requires calibrate_int8 first). Its planned
// path (upscale) carries u8 images between int8 layers, each conv
// requantizing its output for the next in its epilogue; upscale_direct keeps
// an fp32 carrier between layers, and the two are bit-identical. kHybrid
// runs the per-layer fp16/int8 split stored by set_hybrid_plan — the
// NAWQ-SR-style assignment the hybrid planner searches. See
// docs/PERFORMANCE.md, "Precision".
enum class InferencePrecision { kFp32, kFp16, kInt8, kHybrid };

// Per-layer arithmetic of a hybrid plan (fp32 never appears in a plan: the
// planner trades int8 speed against fp16 quality, and fp16 already matches
// fp32 to far below the planning budget).
enum class LayerPrecision : std::uint8_t { kFp16 = 0, kInt8 = 1 };

class SesrInference {
 public:
  // Collapse a trained (or freshly initialized) SESR network.
  explicit SesrInference(const SesrNetwork& network);

  // Reconstruct from a checkpoint previously written by to_tensor_map().
  explicit SesrInference(const TensorMap& map);

  // Copies share no executor state: the copy re-plans lazily. Moves carry the
  // executor (its plans depend only on config/precision, which move along).
  SesrInference(const SesrInference& other);
  SesrInference& operator=(const SesrInference& other);
  SesrInference(SesrInference&&) noexcept;
  SesrInference& operator=(SesrInference&&) noexcept;
  ~SesrInference();

  // Upscale a (N, H, W, 1) Y-channel tensor to (N, scale*H, scale*W, 1),
  // using the precision selected by set_precision (fp32 by default). Runs the
  // compiled execution plan (bit-identical to upscale_direct; only buffer
  // placement differs). Not safe for concurrent calls on one instance — the
  // serve layer runs one replica per worker.
  Tensor upscale(const Tensor& input) const;

  // The legacy unplanned forward: every layer allocates its output tensor.
  // Kept as the reference the planned path is audited against.
  Tensor upscale_direct(const Tensor& input) const;

  // Planned forward into a caller-owned (N, scale*H, scale*W, 1) tensor.
  // Steady state (warm plan cache, grown arenas) performs zero heap
  // allocations.
  void upscale_into(const Tensor& input, Tensor& output) const;

  // Bytes the planned executor's activation arenas retain. They grow on
  // demand to exactly the largest frame (or tile) this instance has
  // upscaled and never shrink: batch * ExecutionPlan::compile(*this, h,
  // w).peak_activation_bytes() of that largest unit.
  std::int64_t plan_arena_bytes() const;

  // Select the forward-pass precision. Switching to kFp16 rounds every conv
  // kernel to binary16 once (cached); switching back restores the untouched
  // fp32 weights. kInt8 requires calibrate_int8 to have run (throws
  // std::logic_error otherwise); kHybrid additionally requires a stored plan.
  // Not thread-safe against concurrent upscale calls.
  void set_precision(InferencePrecision precision);
  InferencePrecision precision() const { return precision_; }

  // Calibrates the int8 path: quantizes every conv kernel (symmetric,
  // per-output-channel) and derives one max-abs activation scale per layer by
  // replaying the exact fused fp32 dataflow — bias included — over the given
  // LR Y-frames. Deterministic; the result serializes through to_tensor_map,
  // so restored replicas inherit bit-identical scales without the frames.
  void calibrate_int8(const std::vector<Tensor>& frames);
  bool int8_calibrated() const { return !act_scales_.empty(); }
  // Per-layer activation scales (m+2 entries once calibrated).
  const std::vector<float>& activation_scales() const { return act_scales_; }
  // Quantized kernels (valid once calibrated).
  const std::vector<nn::S8ConvWeights>& s8_weights() const { return s8_weights_; }

  // Stores the per-layer fp16/int8 assignment used by kHybrid (one entry per
  // conv). Produced by plan_hybrid_precision (core/hybrid_plan.hpp), but any
  // plan of the right length is accepted. Serialized with the checkpoint.
  void set_hybrid_plan(std::vector<LayerPrecision> plan);
  const std::vector<LayerPrecision>& hybrid_plan() const { return plan_; }

  const SesrConfig& config() const { return config_; }
  std::int64_t parameter_count() const;  // conv weights (+ biases), the paper's P
  std::string name() const { return config_.describe() + " [collapsed]"; }

  TensorMap to_tensor_map() const;

  const std::vector<CollapsedConv>& convolutions() const { return convs_; }

  // Per-activation PReLU slopes; empty tensors mean ReLU.
  const std::vector<Tensor>& prelu_alphas() const { return prelu_alpha_; }

  // Fused-epilogue descriptor of the activation following conv `index`
  // (0 = first conv, ..., m = last middle conv): PReLU with the stored
  // per-channel slopes, or ReLU for the hardware variant. The returned
  // epilogue borrows the alpha tensor's storage.
  nn::Epilogue activation_epilogue(std::size_t index) const;

  // Binary16 conv kernels; populated by set_precision(kFp16/kHybrid).
  const std::vector<fp16::HalfTensor>& fp16_weights() const { return fp16_weights_; }

 private:
  Tensor upscale_fp16(const Tensor& input) const;
  // kInt8 / kHybrid direct forward on the fp32 carrier: every int8 layer
  // quantizes its fp32 input once (the reference for the planned u8 carrier).
  Tensor upscale_mixed(const Tensor& input) const;
  // The fp32 direct forward, calling observe(layer, input) (when set) just
  // before each conv — the calibration observer hook. The public
  // upscale_direct runs it without an observer at kFp32.
  using LayerObserver = std::function<void(std::size_t, const Tensor&)>;
  Tensor upscale_direct(const Tensor& input, const LayerObserver& observe) const;
  void ensure_fp16_weights();

  SesrConfig config_;
  std::vector<CollapsedConv> convs_;  // first, m middle (residual folded), last
  std::vector<Tensor> prelu_alpha_;   // per activation; empty tensors when ReLU
  InferencePrecision precision_ = InferencePrecision::kFp32;
  std::vector<fp16::HalfTensor> fp16_weights_;  // per conv; built on first kFp16 switch
  std::vector<float> act_scales_;               // per conv; set by calibrate_int8
  std::vector<nn::S8ConvWeights> s8_weights_;   // per conv; set by calibrate_int8
  std::vector<LayerPrecision> plan_;            // per conv; set by set_hybrid_plan
  // Built on first planned upscale; holds compiled plans + activation arenas.
  mutable std::unique_ptr<plan::PlannedExecutor> exec_;
};

}  // namespace sesr::core
