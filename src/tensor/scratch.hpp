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
// Retention is grow-only by default, which means one oversized request (a 4K
// tile fan-out) would pin peak RSS for the process lifetime. scratch_trim()
// bumps a process-wide epoch; every thread releases its retained capacity the
// next time it asks for scratch, so trimming is safe to request from any
// thread at any time — no buffer is freed while a kernel may still hold its
// span. Per-slot high-water marks record the largest request ever served so
// the retained footprint stays observable after a trim.
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

// Asks every thread to release its retained scratch capacity. Deferred per
// slot: a thread frees a buffer only at that buffer's own next request, so a
// span handed out before the trim stays valid exactly as long as the ownership
// rule above already promised — even for a kernel mid-flight when the trim
// lands. Serve workers call this after finishing an oversized tile fan-out;
// high-water marks are NOT reset.
void scratch_trim();

// Largest request (in elements) ever served for one slot, across all threads
// since process start (or the last scratch_reset_high_water()).
struct ScratchHighWater {
  std::size_t float_elems = 0;
  std::size_t byte_elems = 0;
  std::size_t bytes() const { return float_elems * sizeof(float) + byte_elems; }
};
ScratchHighWater scratch_high_water(ScratchSlot slot);

// Sum of per-slot high-water bytes — an upper bound on one thread's retained
// scratch footprint between trims.
std::size_t scratch_high_water_bytes();

// Test seam: clears all high-water marks.
void scratch_reset_high_water();

// Bytes currently retained by THIS thread's scratch buffers (both sides of
// every slot). Test seam for observing trim behaviour.
std::size_t scratch_thread_retained_bytes();

}  // namespace sesr
