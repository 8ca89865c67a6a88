// IEEE binary16 (half precision) storage type and fp32<->fp16 conversion.
//
// The fp16 inference path stores weights and activations as binary16 and
// accumulates in fp32 (see docs/PERFORMANCE.md, "Precision"), so the only
// arithmetic this module owns is conversion. Two implementations exist behind
// a runtime dispatch seam mirroring nn::set_gemm_isa:
//
//  * a scalar bit-manipulation reference (round-to-nearest-even, subnormals,
//    inf, NaN — no dependency on compiler _Float16 support), and
//  * an F16C vector kernel (VCVTPH2PS / VCVTPS2PH), compiled with
//    target("f16c,avx") and selected at startup via __builtin_cpu_supports.
//
// The two are bit-identical on every input (tests/test_fp16.cpp proves it
// exhaustively for half->float and over golden + random vectors for
// float->half); SESR_DISABLE_F16C=1 forces the scalar path so CI can exercise
// the portable implementation on x86 hosts.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace sesr::fp16 {

// Trivially copyable 16-bit storage cell. Arithmetic never happens in this
// type; kernels convert to fp32, compute, and convert back.
struct Half {
  std::uint16_t bits = 0;
};

static_assert(sizeof(Half) == 2, "Half must be exactly 16 bits");

// Scalar reference conversions (round-to-nearest-even; preserves signed
// zero, infinities, subnormals; NaNs map to quiet NaNs keeping the top 10
// payload bits — the same convention as the F16C hardware instructions).
std::uint16_t float_to_half_bits(float value);
float half_bits_to_float(std::uint16_t bits);

inline Half float_to_half(float value) { return Half{float_to_half_bits(value)}; }
inline float half_to_float(Half h) { return half_bits_to_float(h.bits); }

// Which conversion kernel the vector entry points dispatch to. kAuto picks
// F16C when the CPU supports it (and SESR_DISABLE_F16C is unset); the
// explicit values let the audit sweep both implementations on one machine.
enum class F16cIsa { kAuto, kGeneric, kF16c };

// Force the conversion dispatch; returns false (dispatch unchanged) when the
// requested ISA is unavailable. Only call between kernel invocations.
bool set_f16c_isa(F16cIsa isa);

// True when the F16C kernels are usable: CPU support present and not
// disabled via SESR_DISABLE_F16C=1.
bool f16c_supported();

// Vectorized bulk conversions (dispatched). Ranges must not overlap.
void convert_to_float(const Half* src, float* dst, std::int64_t n);
void convert_to_half(const float* src, Half* dst, std::int64_t n);

// Owning NHWC tensor of Half cells — the fp16 counterpart of sesr::Tensor
// for activations and HWIO weights on the reduced-precision path.
class HalfTensor {
 public:
  HalfTensor() = default;
  explicit HalfTensor(const Shape& shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.numel())) {}
  HalfTensor(std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c)
      : HalfTensor(Shape(n, h, w, c)) {}

  static HalfTensor from_float(const Tensor& t);
  Tensor to_float() const;

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  Half* raw() { return data_.data(); }
  const Half* raw() const { return data_.data(); }

 private:
  Shape shape_{0, 0, 0, 0};
  std::vector<Half> data_;
};

// a[i] = round16(a[i] + b[i]) — the fp16-storage residual add (fp32 compute,
// one rounding on the store), vectorized through the dispatch seam.
void add_inplace(HalfTensor& a, const HalfTensor& b);
// Raw form for arena-resident fp16 activations: identical chunking and
// rounding (widen both sides, add in fp32, round the sum to binary16 once).
void add_inplace(Half* a, const Half* b, std::int64_t n);

// Round every element of a float tensor through binary16 and back — the
// "what the fp16 path sees" projection used by the fp16 forward paths and
// the tests.
void round_through_half(float* data, std::int64_t n);

}  // namespace sesr::fp16
