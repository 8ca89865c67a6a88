// Per-thread scratch arena for kernel workspace buffers.
//
// Hot paths (im2col lowering, GEMM packing, striped gradient partials) need
// short-lived float buffers on every call; allocating them per call dominates
// steady-state training time. Each thread owns one growable buffer per slot:
// the first call allocates, later calls reuse the retained capacity, so
// steady-state runs do no allocation at all.
//
// Ownership rules (see docs/PERFORMANCE.md):
//  - A span is valid until the SAME slot is requested again on the SAME thread.
//  - Slots are per call site: two live buffers in one kernel must use two slots.
//  - Never hand a span to another thread that may re-request the slot; sharing
//    the memory read/write across a parallel_for from the owning thread is fine
//    (the workers never touch the arena slot itself).
//
// Retention is grow-only: each slot keeps the largest buffer it has served on
// its thread, for the thread's lifetime. A serve worker runs one frame or one
// haloed tile at a time, so its scratch is bounded by the largest unit it has
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sesr {

enum class ScratchSlot : std::size_t {
  kGemmPackA = 0,   // packed A panels inside gemm
  kGemmPackB,       // packed B panels inside gemm
  kIm2col,          // per-stripe im2col patch matrix (weight grad, zero-skip)
  kConvCols,        // full-image column matrix (conv backward input)
  kGradPartial,     // per-stripe weight/bias gradient partials
  kGemmRowA,        // one panel of A rows from the row producer, before the A-pack
  kGemmRowB,        // one gathered or widened B row, before the B-pack
  kF16OutStripe,    // fp32 conv output stripe before the fp16 store
  kS8Quant,         // zero-point-padded u8 input image (int8 conv forward)
  kS8Dequant,       // per-channel dequant scales (int8 conv forward)
  kSlotCount,
};

// Returns this thread's buffer for `slot`, grown to at least `n` floats.
// Contents are unspecified (callers overwrite or explicitly zero).
std::span<float> scratch_floats(ScratchSlot slot, std::size_t n);

// Byte-typed variant for the int8 kernels' quantized images. Slots are shared
// with scratch_floats only in name: each slot owns one float buffer AND one
// byte buffer per thread, so requesting bytes never invalidates a float span
// of the same slot (the int8 slots above only ever use the byte side).
std::span<std::uint8_t> scratch_bytes(ScratchSlot slot, std::size_t n);

}  // namespace sesr
