#include "tensor/scratch.hpp"

#include <array>
#include <vector>

namespace sesr {

namespace {

constexpr std::size_t kSlots = static_cast<std::size_t>(ScratchSlot::kSlotCount);

// One thread's buffers for every slot.
struct ThreadScratch {
  std::array<std::vector<float>, kSlots> floats;
  std::array<std::vector<std::uint8_t>, kSlots> bytes;
};

ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

}  // namespace

std::span<float> scratch_floats(ScratchSlot slot, std::size_t n) {
  std::vector<float>& buf = thread_scratch().floats[static_cast<std::size_t>(slot)];
  if (buf.size() < n) buf.resize(n);  // never shrinks: capacity is retained
  return {buf.data(), n};
}

std::span<std::uint8_t> scratch_bytes(ScratchSlot slot, std::size_t n) {
  std::vector<std::uint8_t>& buf = thread_scratch().bytes[static_cast<std::size_t>(slot)];
  if (buf.size() < n) buf.resize(n);
  return {buf.data(), n};
}

}  // namespace sesr
