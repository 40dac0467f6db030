#include "serve_common.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/capture.hpp"
#include "autograd/var.hpp"
#include "data/registry.hpp"
#include "obs/profile.hpp"

namespace perfbench {

using namespace ibrar;

void ServeStack::start() {
  server = std::make_unique<serve::Server>(registry, cfg);
  frontend = std::make_unique<serve::net::TcpFrontend>(*server);
}

void ServeStack::stop() {
  frontend.reset();  // the destructor stops it
  server.reset();    // likewise: drain, then join the workers
}

std::unique_ptr<ServeStack> build_stack(const ModelFactory& make_model,
                                        const Shape& chw,
                                        const serve::ServeConfig& cfg) {
  auto st = std::make_unique<ServeStack>();
  st->registry.publish(make_model(), chw, "served");
  st->ref_registry.publish(make_model(), chw, "reference", /*prepack=*/false);
  st->cfg = cfg;
  st->start();
  return st;
}

std::vector<Tensor> make_inputs(std::uint64_t seed, std::int64_t count,
                                Shape* chw_out) {
  const std::int64_t pool = std::min<std::int64_t>(count, 256);
  const auto data = data::make_dataset("synth-cifar10", /*train_size=*/1,
                                       pool, derive_seed(seed, 11));
  const auto& ds = data.test;
  const Shape chw = {ds.channels(), ds.height(), ds.width()};
  const std::int64_t row = chw[0] * chw[1] * chw[2];
  SplitMix64 noise(derive_seed(seed, 12));
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    Tensor x(chw);
    const float* src = ds.images.data().data() + (i % pool) * row;
    float* dst = x.data().data();
    for (std::int64_t k = 0; k < row; ++k) {
      const float v = src[k] + static_cast<float>(noise.uniform() - 0.5) *
                                   (2.0f / 255.0f);
      dst[k] = std::min(1.0f, std::max(0.0f, v));
    }
    inputs.push_back(std::move(x));
  }
  if (chw_out != nullptr) *chw_out = chw;
  return inputs;
}

ReferenceLogits::ReferenceLogits(const serve::ModelSnapshot& ref,
                                 const std::vector<Tensor>& inputs)
    : logits_(inputs.size()) {
  const auto lanes = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::string> errors(lanes);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < lanes; ++t) {
    threads.emplace_back([&, t] {
      try {
        ag::NoGradGuard ng;  // per thread: the guard is thread-local
        for (std::size_t i = t; i < inputs.size(); i += lanes) {
          Shape one = inputs[i].shape();
          one.insert(one.begin(), 1);
          const Tensor y = ref.forward(inputs[i].reshape(one));
          logits_[i].assign(y.data().begin(), y.data().end());
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("reference forward: " + e);
  }
}

Verdict verify(const std::vector<Sent>& sent, const ReferenceLogits& ref) {
  Verdict v;
  for (const auto& s : sent) {
    if (s.replies != 1) {
      ++v.failed;
      continue;
    }
    if (!s.frame.ok()) {
      ++v.refused;
      continue;
    }
    const auto& want = ref.at(s.input);
    const auto& got = s.frame.logits;
    bool ok = got.size() == want.size() && !got.empty() &&
              std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()) == 0;
    if (ok) {
      std::int64_t best = 0;
      for (std::size_t j = 1; j < got.size(); ++j) {
        if (got[j] > got[static_cast<std::size_t>(best)]) {
          best = static_cast<std::int64_t>(j);
        }
      }
      ok = best == s.frame.argmax;
    }
    if (!ok) ++v.wrong;
  }
  return v;
}

std::vector<double> latencies_ms(const std::vector<Sent>& sent) {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const auto& s : sent) {
    out.push_back(s.replies == 1 && s.frame.ok()
                      ? ms(s.recv_ns - s.due_ns)
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> lateness_ms(const std::vector<Sent>& paced) {
  std::vector<double> out;
  out.reserve(paced.size());
  for (const auto& s : paced) out.push_back(ms(s.send_ns - s.due_ns));
  return out;
}

void add_reply_layers(const std::vector<Sent>& sent,
                      const std::vector<Sent>& paced, Result& r) {
  std::vector<double> extra, queue, compute;
  std::int64_t ok = 0, busy = 0, cached = 0, computed = 0;
  // A batch of b rows shows up in b replies, so summing 1/b over computed
  // replies counts batches.
  double batches = 0.0, deadline_batches = 0.0;
  for (const auto& s : sent) {
    if (s.replies != 1) continue;
    if (s.frame.status == serve::net::WireStatus::kBusyRetryAfter) ++busy;
    if (!s.frame.ok()) continue;
    ++ok;
    if (s.frame.cached) {
      ++cached;
      continue;
    }
    ++computed;
    extra.push_back(ms(s.recv_ns - s.send_ns - s.frame.queue_ns -
                       s.frame.compute_ns));
    queue.push_back(ms(s.frame.queue_ns));
    compute.push_back(ms(s.frame.compute_ns));
    if (s.frame.batch_size > 0) {
      const double share = 1.0 / static_cast<double>(s.frame.batch_size);
      batches += share;
      if (s.frame.trigger ==
          static_cast<std::uint8_t>(serve::BatchTrigger::kDeadline)) {
        deadline_batches += share;
      }
    }
  }
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& pl = r.per_layer;
  pl.push_back({"net.extra_ms.p50", percentile(extra, 0.5), "ms"});
  pl.push_back({"serve.queue_wait_ms.p50", percentile(queue, 0.5), "ms"});
  pl.push_back(
      {"serve.deadline_frac", frac(deadline_batches, batches), "fraction"});
  pl.push_back({"serve.compute_ms.p50", percentile(compute, 0.5), "ms"});
  pl.push_back({"serve.batch_rows.mean",
                frac(static_cast<double>(computed), batches), "rows"});
  pl.push_back({"serve.busy_frac",
                frac(static_cast<double>(busy),
                     static_cast<double>(sent.size())),
                "fraction"});
  pl.push_back({"serve.cache.hit_frac",
                frac(static_cast<double>(cached), static_cast<double>(ok)),
                "fraction"});
  if (!paced.empty()) {
    const auto late = lateness_ms(paced);
    pl.push_back({"loadgen.late_p50_ms", percentile(late, 0.5), "ms"});
    pl.push_back({"loadgen.late_p99_ms", percentile(late, 0.99), "ms"});
  }
}

void add_resource_info(const std::string& tag, const ResourceTrail& t,
                       Result& r) {
  const auto add = [&](const char* what, const ProcReading& p) {
    r.info.push_back({tag + ".fds." + what, static_cast<double>(p.fds),
                      "count"});
    r.info.push_back({tag + ".threads." + what,
                      static_cast<double>(p.threads), "count"});
    r.info.push_back({tag + ".vmhwm_mb." + what, p.hwm_mb, "MB"});
  };
  add("before", t.before);
  add("after", t.after);
  add("stopped", t.stopped);
}

namespace {

Tensor stack_rows(const std::vector<Tensor>& inputs, std::int64_t first,
                  std::int64_t rows) {
  const Shape& chw = inputs.front().shape();
  const std::int64_t row = chw[0] * chw[1] * chw[2];
  Tensor x({rows, chw[0], chw[1], chw[2]});
  for (std::int64_t i = 0; i < rows; ++i) {
    const auto& src =
        inputs[static_cast<std::size_t>((first + i) %
                                         static_cast<std::int64_t>(
                                             inputs.size()))];
    std::memcpy(x.data().data() + i * row, src.data().data(),
                sizeof(float) * static_cast<std::size_t>(row));
  }
  return x;
}

}  // namespace

void probe_layers(const serve::ModelSnapshot& snap,
                  const std::vector<Tensor>& inputs,
                  const serve::TelemetryConfig& telemetry, SpanLog* log,
                  Result& r) {
  constexpr std::int64_t kCalls = 64;
  ag::NoGradGuard ng;  // the serving forward runs without a graph
  std::vector<Tensor> b1, b8;
  for (std::int64_t k = 0; k < kCalls; ++k) {
    b1.push_back(stack_rows(inputs, k, 1));
    b8.push_back(stack_rows(inputs, 8 * k, 8));
  }
  {
    Scope probe(log, "probe.forward");
    for (const auto& x : b1) {
      Scope s(log, "models.forward.b1");
      (void)snap.forward(x);
    }
    obs::reset_profile();
    obs::set_profiling_enabled(true);
    for (const auto& x : b8) {
      Scope s(log, "models.forward.b8");
      (void)snap.forward(x);
    }
    obs::set_profiling_enabled(false);
  }
  const auto table = obs::profile_table();
  obs::reset_profile();
  const double n = static_cast<double>(kCalls);
  const double fused = site_ms(table, "tensor/conv_eval/fused", n);
  const double pack_b = site_ms(table, "tensor/conv_eval/pack_b", n);
  const double kernel = site_ms(table, "tensor/conv_eval/kernel", n);
  auto& pl = r.per_layer;
  pl.push_back({"tensor.conv_eval.pack_b_ms", pack_b, "ms"});
  pl.push_back({"tensor.conv_eval.kernel_ms", kernel, "ms"});
  // pack_b and kernel sum the time of every lane while fused is wall time
  // around the whole call, so with more than one lane this difference
  // understates the epilogue and can go negative.
  pl.push_back({"tensor.conv_eval.epilogue_ms", fused - pack_b - kernel, "ms"});
  pl.push_back({"tensor.maxpool2d_eval_ms",
                site_ms(table, "tensor/maxpool2d_eval", n), "ms"});
  pl.push_back({"tensor.gemm_packed_ms",
                site_ms(table, "tensor/gemm_packed", n), "ms"});
  pl.push_back({"runtime.dispatch_calls",
                site_calls(table, "runtime/parallel_for.dispatch", n),
                "count"});

  if (telemetry.sample_every <= 0) return;
  // The server's telemetry path, call for call: capture_taps on a one-row
  // dataset, then RobustnessMonitor::observe on the last-conv tap.
  const std::size_t tap = snap.model->last_conv_tap_index();
  const std::int64_t channels = snap.model->last_conv_channels();
  std::vector<data::Dataset> rows(static_cast<std::size_t>(kCalls));
  for (std::int64_t k = 0; k < kCalls; ++k) {
    auto& one = rows[static_cast<std::size_t>(k)];
    one.images = b1[static_cast<std::size_t>(k)];
    one.labels = {0};
    one.num_classes = snap.num_classes;
  }
  std::vector<analysis::TapDump> dumps;
  serve::RobustnessMonitor monitor(telemetry);
  {
    Scope probe(log, "probe.telemetry");
    for (const auto& one : rows) {
      Scope s(log, "serve.telemetry.capture");
      dumps.push_back(analysis::capture_taps(*snap.model, one, -1, 1, {tap}));
    }
    const std::int64_t observes = 4 * telemetry.window;
    for (std::int64_t i = 0; i < observes; ++i) {
      const auto& d = dumps[static_cast<std::size_t>(i % kCalls)];
      const std::int64_t width = d.taps[0].dim(1);
      const bool completes = (i + 1) % telemetry.window == 0;
      Scope s(log, completes ? "serve.telemetry.rescore"
                             : "serve.telemetry.observe");
      (void)monitor.observe(d.taps[0].data().data(), channels,
                            width / channels, d.preds[0], snap.num_classes);
    }
  }
}

void add_span_layers(const Tracer& tracer, Result& r) {
  const auto p50 = [&](const char* name) {
    return percentile(tracer.span_ms(name), 0.5);
  };
  auto& pl = r.per_layer;
  pl.push_back({"net.connect_ms.p50", p50("net.connect"), "ms"});
  pl.push_back({"models.forward_ms.b1", p50("models.forward.b1"), "ms"});
  pl.push_back({"models.forward_ms.b8", p50("models.forward.b8"), "ms"});
  pl.push_back({"serve.telemetry.capture_ms", p50("serve.telemetry.capture"),
                "ms"});
  pl.push_back({"serve.telemetry.rescore_ms", p50("serve.telemetry.rescore"),
                "ms"});
}

}  // namespace perfbench
