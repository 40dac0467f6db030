#include "runtime/scratch_arena.hpp"

namespace ibrar::runtime {

void* ScratchArena::bytes(Scratch slot, std::size_t want) {
  const auto s = static_cast<std::size_t>(slot);
  if (bytes_[s] < want) {
    // Grow geometrically so alternating shapes don't reallocate every call.
    std::size_t cap = bytes_[s] == 0 ? 4096 : bytes_[s];
    while (cap < want) cap *= 2;
    buf_[s].reset(::operator new[](cap, std::align_val_t{kScratchAlign}));
    bytes_[s] = cap;
  }
  return buf_[s].get();
}

ScratchArena& lane_arena() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace ibrar::runtime
