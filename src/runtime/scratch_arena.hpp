#pragma once
// Per-lane scratch memory for kernel workspaces.
//
// Packing-based kernels (the blocked GEMM in tensor/gemm_packed.*) need a few
// hundred KB of temporary panel storage per executing lane. Allocating it per
// call would put malloc on the hottest path in the library, so each OS thread
// owns one lazily-grown ScratchArena that is reused across calls for the
// lifetime of the thread. Pool lanes are long-lived (the global ThreadPool
// never recycles its workers), so in steady state every lane settles at the
// high-water mark of the kernels it runs and no further allocation happens.
//
// Buffers are aligned to kScratchAlign (one cache line, and wide enough for
// any SIMD width the compiler vectorizes with) and are uninitialized: callers
// must treat the contents as garbage until they pack into them.

#include <cstddef>
#include <cstdint>
#include <memory>

namespace ibrar::runtime {

inline constexpr std::size_t kScratchAlign = 64;

/// Named arena slots. Slots are independent buffers, so kernels that nest can
/// coexist as long as each holds a distinct handle: the packed GEMM owns
/// kGemmPackA/kGemmPackB, the symmetric Gram driver (tensor/matmul.cpp) holds
/// its C block in kSymGramTile across the gemm_packed call it makes into the
/// pack slots, and the serving telemetry (serve/telemetry.cpp) keeps its
/// per-channel statistics in kServeTelemetry across the channel-score kernels
/// it invokes (which bottom out in the same GEMM slots). The conv driver
/// (tensor/conv_eval.cpp) holds its A panels (or the weight gradient's
/// copy of g^T) in the caller's kConvPackA, x's padded grid in kConvPadX,
/// its tap offsets or output positions in kConvTaps, and the input
/// gradient's gather mask in kConvTapMask, across the pool dispatch whose
/// lanes read them and fill their own kConvPackB and kConvAccC.
/// Adding a consumer = adding an enumerator; the arena sizes itself from
/// kCount. get<T>() hands out a slot as any trivial element type; floats()
/// is get<float>().
enum class Scratch : std::size_t {
  kGemmPackA = 0,   ///< A panels, per lane (tensor/gemm_packed.cpp)
  kGemmPackB,       ///< shared packed B (tensor/gemm_packed.cpp)
  kSymGramTile,     ///< C block of matmul_nt_sym, held across gemm_packed
  kServeTelemetry,  ///< per-channel energies, held across channel scoring
  kConvPackA,       ///< a conv kernel's shared A panels, per call: conv2d's
                    ///< weights, w^T for the input gradient; or the weight
                    ///< gradient's g^T (tensor/conv_eval.cpp)
  kConvPackB,       ///< a conv task's B strips, packed from the padded
                    ///< grid or from g's planes (tensor/conv_eval.cpp)
  kConvAccC,        ///< conv C accumulator block (tensor/conv_eval.cpp)
  kConvPadX,        ///< a conv forward's or weight gradient's zero-padded
                    ///< channel-major copy of x, per call; every lane reads
                    ///< its taps from it (tensor/conv_eval.cpp)
  kConvTaps,        ///< a conv call's tables: the forward's offset of each
                    ///< tap (ic, ky, kx) in the padded copy and, where it
                    ///< packs B, of each output position; the weight
                    ///< gradient's output positions; the input gradient's
                    ///< offset of each filter's plane in g
                    ///< (tensor/conv_eval.cpp)
  kConvTapMask,     ///< the input gradient's per-call mask of which taps
                    ///< (ky, kx) of each input position come from an output
                    ///< position inside the image (tensor/conv_eval.cpp)
  kCount,
};

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Aligned buffer of at least `n` elements of T in `slot`, valid until the
  /// next resize of the same slot.
  template <typename T>
  T* get(Scratch slot, std::size_t n) {
    return static_cast<T*>(bytes(slot, n * sizeof(T)));
  }
  float* floats(Scratch slot, std::size_t n) { return get<float>(slot, n); }

  /// High-water mark in bytes across all slots (for tests/telemetry).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto b : bytes_) total += b;
    return total;
  }

 private:
  void* bytes(Scratch slot, std::size_t bytes);

  struct AlignedFree {
    void operator()(void* p) const {
      ::operator delete[](p, std::align_val_t{kScratchAlign});
    }
  };
  static constexpr std::size_t kSlots = static_cast<std::size_t>(Scratch::kCount);
  std::unique_ptr<void, AlignedFree> buf_[kSlots];
  std::size_t bytes_[kSlots] = {};
};

/// The calling thread's arena (thread_local; one per pool lane plus one for
/// the main thread and any user thread that calls into the library).
ScratchArena& lane_arena();

}  // namespace ibrar::runtime
