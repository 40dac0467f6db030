#pragma once
// Pieces the two serving workloads share: the served/reference model pair,
// the server stack, seeded request inputs, reply verification, the metrics
// derived from reply frames, and the single-layer probes of the traced run.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/client.hpp"
#include "serve/net/listener.hpp"
#include "serve/server.hpp"

namespace perfbench {

using ModelFactory = std::function<ibrar::models::TapClassifierPtr()>;

/// The server under test plus a same-seed reference model published with
/// prepack=false (the layer-by-layer eval path). Members are destroyed in
/// reverse order: front end, then server, then the registries.
struct ServeStack {
  ibrar::serve::ModelRegistry registry;
  ibrar::serve::ModelRegistry ref_registry;
  ibrar::serve::ServeConfig cfg;
  std::unique_ptr<ibrar::serve::Server> server;
  std::unique_ptr<ibrar::serve::net::TcpFrontend> frontend;

  /// A fresh server (with an empty reply cache) and front end.
  void start();
  /// Front end first, then the server.
  void stop();
};

/// Build both models, publish them and start the server and front end.
std::unique_ptr<ServeStack> build_stack(const ModelFactory& make_model,
                                        const ibrar::Shape& chw,
                                        const ibrar::serve::ServeConfig& cfg);

/// `count` distinct (C, H, W) inputs: synth-cifar10 test images from the
/// seed, each with its own small seeded noise so no two are equal.
std::vector<ibrar::Tensor> make_inputs(std::uint64_t seed, std::int64_t count,
                                       ibrar::Shape* chw_out);

/// One request as the load generator saw it.
struct Sent {
  std::int64_t input = -1;   ///< index into the input set
  std::int64_t due_ns = 0;   ///< latency is timed from here
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  int replies = 0;           ///< replies that carried this request's id
  ibrar::serve::net::ReplyFrame frame;
};

/// Reply checks against batch-1 forwards of the reference model: exactly one
/// reply per request, status ok, logits memcmp-equal, argmax consistent.
struct Verdict {
  std::int64_t refused = 0;  ///< a reply with a non-ok status
  std::int64_t failed = 0;   ///< no reply, or more than one
  std::int64_t wrong = 0;    ///< logits or argmax disagree with the reference
  std::int64_t bad() const { return refused + failed + wrong; }
};

/// Reference logits: a batch-1 forward of every input on the reference
/// snapshot, computed once after the measured passes on one thread per
/// core (the snapshot forward is const and safe to share).
class ReferenceLogits {
 public:
  ReferenceLogits(const ibrar::serve::ModelSnapshot& ref,
                  const std::vector<ibrar::Tensor>& inputs);
  const std::vector<float>& at(std::int64_t input) const {
    return logits_[static_cast<std::size_t>(input)];
  }

 private:
  std::vector<std::vector<float>> logits_;
};

Verdict verify(const std::vector<Sent>& sent, const ReferenceLogits& ref);

/// Latency of every request in ms, from its due time; a request without an
/// ok reply counts as infinitely late, so it misses every latency limit.
std::vector<double> latencies_ms(const std::vector<Sent>& sent);

/// How late the generator sent paced requests (send - due), in ms.
std::vector<double> lateness_ms(const std::vector<Sent>& paced);

/// Per-layer metrics read from the reply frames of `sent` (server-side queue
/// and compute time, batching, cache) and the lateness of `paced`.
void add_reply_layers(const std::vector<Sent>& sent,
                      const std::vector<Sent>& paced, Result& r);

/// fds, threads and VmHWM before and after a run with the front end up, and
/// after it stopped; printed as info lines.
struct ResourceTrail {
  ProcReading before, after, stopped;
};
void add_resource_info(const std::string& tag, const ResourceTrail& t,
                       Result& r);

/// Traced-run probes of single layers on the served snapshot: batch-1 and
/// batch-8 forwards (with the kernel split from the library's profile sites
/// around the batch-8 ones) and, with telemetry on, the tap capture and
/// the window re-score.
void probe_layers(const ibrar::serve::ModelSnapshot& snap,
                  const std::vector<ibrar::Tensor>& inputs,
                  const ibrar::serve::TelemetryConfig& telemetry,
                  SpanLog* log, Result& r);

/// Per-layer medians of the probe and connect spans once every recording
/// thread has been joined.
void add_span_layers(const Tracer& tracer, Result& r);

}  // namespace perfbench
