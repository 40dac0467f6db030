#pragma once
// Dynamic micro-batch assembly under a dual trigger.
//
// The batcher blocks for the first request, then keeps collecting until
// EITHER the batch reaches max_batch (size trigger — released immediately,
// no deadline wait) OR deadline_us have elapsed since that first pop
// (deadline trigger — bounded latency under trickle load). A closed queue
// flushes whatever has been collected at once (drain trigger), so shutdown
// never waits out a deadline.
//
// Determinism contract: batching is a pure scheduling decision. The model
// forward downstream is per-row stateless in eval mode (no cross-row ops;
// batch norm reads frozen running stats; dropout is identity) and every
// tensor kernel in the stack guarantees a per-element instruction sequence
// independent of the batch row count, so a request's logits are bit-identical
// whichever micro-batch it lands in — including a batch of one.
// Server.BatchedLogitsBitIdenticalToSingleton in tests/test_serve.cpp gates
// on exactly this.

#include <cstdint>
#include <vector>

#include "serve/request_queue.hpp"

namespace ibrar::serve {

/// One assembled micro-batch, ready for a single packed-GEMM forward.
/// assemble_begin/end_ns bracket the collection window (first pop -> release)
/// on the shared obs::now_ns() axis, so the server can emit batch_assembly
/// and queue_wait trace spans after the fact.
struct MicroBatch {
  std::vector<Request> requests;
  BatchTrigger trigger = BatchTrigger::kSize;
  std::int64_t assemble_begin_ns = 0;
  std::int64_t assemble_end_ns = 0;
  std::int64_t size() const {
    return static_cast<std::int64_t>(requests.size());
  }
};

class Batcher {
 public:
  /// max_batch is clamped to >= 1; deadline_us < 0 is treated as 0 (release
  /// as soon as the queue stops handing over items without waiting).
  Batcher(RequestQueue& queue, std::int64_t max_batch, std::int64_t deadline_us);

  /// Assemble the next micro-batch. Returns false when the queue is closed
  /// and fully drained — the worker's signal to exit.
  bool next(MicroBatch& out);

  std::int64_t max_batch() const { return max_batch_; }
  std::int64_t deadline_us() const { return deadline_us_; }

 private:
  RequestQueue& queue_;
  std::int64_t max_batch_;
  std::int64_t deadline_us_;
};

}  // namespace ibrar::serve
