// bench_serve — closed- and open-loop load generators for the serving stack.
//
// Closed loop: sweeps concurrent closed-loop clients x batch deadline over
// the dynamic micro-batching server and A/Bs it against batch=1 serial
// serving, then scales worker threads (workers = 1/2/4, telemetry ON — the
// combination the const-forward refactor made legal). Open loop: Poisson
// arrivals at a fixed offered rate through the TCP front-end (serve/net),
// the latency-under-load methodology closed-loop clients cannot provide
// (they self-throttle, hiding queueing delay). Hard gates:
//
//   * bit-identity: every request's logits through the batched server — any
//     worker count, telemetry on or off — are memcmp-equal to the batch=1
//     server's logits for the same input (the determinism contract of
//     serve/batcher.hpp and serve/model_registry.hpp). The batch=1 baseline
//     is a same-seed model published with prepack=false (the layer-by-layer
//     eval path), so this gate also pins the snapshot's inference plan
//     (models/plan, tensor/conv_eval) to the reference numerics end-to-end;
//   * backpressure contract: under a flood into a tiny queue, rejects carry
//     kBusyRetryAfter with a clamped retry-after hint (no other status
//     appears), every accepted request is served, and accepted + rejected ==
//     offered;
//   * reply-cache contract: over a fixed-seed duplicate-heavy schedule the
//     cache-on server's logits are memcmp-equal per request to a cache-off
//     run of the same schedule, hits == duplicate count and misses ==
//     distinct count exactly, and (full mode) vgg16 at 90% duplicates is
//     >= 2x the cache-off throughput;
//   * open-loop accounting: every sent request gets exactly one reply
//     (served or rejected-with-status) through the socket; the saturation
//     row additionally requires every reject to be kBusyRetryAfter with a
//     usable hint.
//
// Any gate failing exits nonzero (this is the bench_serve_smoke CTest
// target in --smoke mode; --cache-smoke runs just the reply-cache sweep for
// the bench_serve_cache_smoke target). Argmax accuracy over a labeled test
// set is recorded for both modes; bit-identity makes them equal by
// construction, and the gate checks it anyway.
//
// JSON rows (ibrar-bench-v1, default BENCH_pr9.json / IBRAR_BENCH_OUT):
//   kernel "serve/serial|batched|workers|telemetry|openloop", shape
//   "clients=..,deadline_us=..,max_batch=..[,workers=..|offered_rps=..]",
//   ns_per_op = mean ns/request, gflops = analytic model FLOPs per request
//   divided by measured ns/request, checksum = p99 ms, speedup_vs_naive =
//   throughput vs the serial row, bit_identical = gate, plus latency
//   percentiles as extra fields p50_ms/p95_ms/p99_ms (client-observed,
//   timed section only; open-loop rows also carry offered_rps/achieved_rps).
//   Open-loop latencies additionally stream into the process-global
//   obs::registry() histogram serve.openloop.latency_ns.
//
// Every timed configuration is preceded by an untimed warm-up pass through
// the same server (first-touch page faults, pool spin-up, branch warm-up),
// so the recorded percentiles measure steady state rather than start-up.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "models/mlp.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/client.hpp"
#include "serve/net/listener.hpp"
#include "serve/server.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

struct LoadResult {
  double seconds = 0.0;
  double throughput = 0.0;   ///< requests / s
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double accuracy = 0.0;     ///< argmax == label over the served set
  std::uint64_t max_batch_observed = 0;
};

/// Drive `clients` closed-loop client threads over the staged rows: client c
/// owns requests c, c+clients, c+2*clients, ... and submits its next request
/// the moment the previous reply lands. Optionally collects each request's
/// logits into `logits_out` for the bit-identity gate. A `warmup`-request
/// untimed pass (same clients, same rows) runs first so the timed section
/// measures steady state.
LoadResult run_closed_loop(serve::Server& server, const data::Dataset& ds,
                           const std::vector<Tensor>& rows,
                           std::int64_t total_requests, std::int64_t clients,
                           std::vector<Tensor>* logits_out = nullptr,
                           std::int64_t warmup = 0) {
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  if (warmup > 0) {
    std::vector<std::thread> warm;
    warm.reserve(static_cast<std::size_t>(clients));
    for (std::int64_t c = 0; c < clients; ++c) {
      warm.emplace_back([&, c] {
        for (std::int64_t r = c; r < warmup; r += clients) {
          server.submit(rows[static_cast<std::size_t>(r % n)]).get();
        }
      });
    }
    for (auto& t : warm) t.join();
  }
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::int64_t> correct(static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> served(static_cast<std::size_t>(clients), 0);
  if (logits_out != nullptr) {
    logits_out->assign(static_cast<std::size_t>(total_requests), Tensor());
  }

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (std::int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::int64_t r = c; r < total_requests; r += clients) {
        const std::int64_t row = r % n;
        Stopwatch sw;
        auto reply =
            server.submit(rows[static_cast<std::size_t>(row)]).get();
        lat[static_cast<std::size_t>(c)].push_back(sw.seconds() * 1e3);
        if (!reply.ok()) continue;  // rejects are counted by server stats
        ++served[static_cast<std::size_t>(c)];
        if (reply.argmax == ds.labels[static_cast<std::size_t>(row)]) {
          ++correct[static_cast<std::size_t>(c)];
        }
        if (logits_out != nullptr) {
          (*logits_out)[static_cast<std::size_t>(r)] = std::move(reply.logits);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadResult res;
  res.seconds = wall.seconds();
  std::vector<double> all;
  std::uint64_t ok = 0;
  std::int64_t hits = 0;
  for (std::int64_t c = 0; c < clients; ++c) {
    const auto& l = lat[static_cast<std::size_t>(c)];
    all.insert(all.end(), l.begin(), l.end());
    ok += served[static_cast<std::size_t>(c)];
    hits += correct[static_cast<std::size_t>(c)];
  }
  res.throughput = static_cast<double>(total_requests) / res.seconds;
  res.p50_ms = percentile(all, 0.50);
  res.p95_ms = percentile(all, 0.95);
  res.p99_ms = percentile(all, 0.99);
  res.accuracy = ok > 0 ? static_cast<double>(hits) / static_cast<double>(ok)
                        : 0.0;
  res.max_batch_observed = server.stats().max_batch_observed;
  return res;
}

/// Analytic forward FLOPs for one request (one image), counting every
/// multiply-add in the conv/linear kernels as 2 flops. This is the numerator
/// that turns measured ns/request into real GFLOP/s for the serve/* rows
/// (the previous schema reported 0.000 there).
double flops_per_request(const std::string& label, const Shape& chw,
                         std::int64_t classes) {
  const double in =
      static_cast<double>(chw[0] * chw[1] * chw[2]);
  if (label == "mlp256") {
    return 2.0 * (in * 256.0 + 256.0 * 256.0 + 256.0 * classes);
  }
  // vgg16 (models/vgg.hpp defaults): 5 blocks x 2 convs of 3x3 pad-1, pool
  // after blocks 1-3, then flatten -> 64 -> 64 -> classes linears.
  const std::vector<std::int64_t> ch = {8, 12, 16, 24, 24};
  double fl = 0.0;
  double c = static_cast<double>(chw[0]);
  double s = static_cast<double>(chw[1]);
  for (std::size_t b = 0; b < ch.size(); ++b) {
    for (int conv = 0; conv < 2; ++conv) {
      fl += 2.0 * s * s * static_cast<double>(ch[b]) * c * 9.0;
      c = static_cast<double>(ch[b]);
    }
    if (b < 3) s /= 2.0;
  }
  fl += 2.0 * (c * s * s * 64.0 + 64.0 * 64.0 + 64.0 * classes);
  return fl;
}

void add_row(JsonReporter& rep, const std::string& kernel,
             const std::string& shape, const LoadResult& r, double speedup,
             bool bit_identical, double flops = 0.0) {
  BenchRecord rec;
  rec.kernel = kernel;
  rec.shape = shape;
  rec.ns_per_op = 1e9 / r.throughput;  // mean ns per request end-to-end
  // flops/request divided by ns/request is GFLOP/s of the whole pipeline.
  rec.gflops = rec.ns_per_op > 0.0 ? flops / rec.ns_per_op : 0.0;
  rec.threads = runtime::num_threads();
  rec.checksum = r.p99_ms;             // headline latency metric
  rec.speedup_vs_naive = speedup;
  rec.bit_identical = bit_identical;
  rec.extra = {{"p50_ms", r.p50_ms}, {"p95_ms", r.p95_ms},
               {"p99_ms", r.p99_ms}};
  rep.add(rec);
}

struct OpenLoopResult {
  double offered_rps = 0.0;   ///< target Poisson arrival rate
  double achieved_rps = 0.0;  ///< replies per wall second actually observed
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;     ///< all non-ok replies (busy included)
  std::uint64_t busy = 0;         ///< the kBusyRetryAfter subset of rejected
  std::uint64_t busy_hinted = 0;  ///< busy replies whose hint is in [1, 5000]
  bool accounted = false;  ///< every sent request got exactly one reply
};

/// Open-loop (Poisson) load through the TCP front-end: the sender fires
/// requests at exponential inter-arrival times REGARDLESS of how fast
/// replies come back — the defining property open-loop has and closed-loop
/// lacks (a closed-loop client stalls with the server, so measured latency
/// under saturation stays flat instead of exploding). A receiver thread
/// drains replies off the same pipelined connection and stamps per-request
/// latency by correlation id. Arrival times are pre-drawn from a fixed seed,
/// so two runs at the same rate offer identical traffic; `offered_rps` <= 0
/// sends the whole schedule as one unpaced burst.
OpenLoopResult run_open_loop(std::uint16_t port, const std::vector<Tensor>& rows,
                             double offered_rps, std::int64_t total) {
  using clock = std::chrono::steady_clock;
  serve::net::Client client("127.0.0.1", port);
  const std::int64_t n = static_cast<std::int64_t>(rows.size());

  std::vector<double> arrival_s(static_cast<std::size_t>(total), 0.0);
  if (offered_rps > 0.0) {
    std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
    std::exponential_distribution<double> gap(offered_rps);
    double t = 0.0;
    for (auto& a : arrival_s) {
      t += gap(rng);
      a = t;
    }
  }

  std::vector<clock::time_point> sent_at(static_cast<std::size_t>(total));
  OpenLoopResult res;
  res.offered_rps = offered_rps;
  res.sent = static_cast<std::uint64_t>(total);

  auto& h_latency = obs::registry().histogram("serve.openloop.latency_ns");
  std::vector<double> lat_ms;
  lat_ms.reserve(static_cast<std::size_t>(total));
  clock::time_point last_reply{};
  std::thread receiver([&] {
    for (std::int64_t i = 0; i < total; ++i) {
      const auto reply = client.recv();
      const auto now = clock::now();
      last_reply = now;
      if (reply.id >= static_cast<std::uint64_t>(total)) return;  // corrupt
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - sent_at[static_cast<std::size_t>(reply.id)])
              .count());
      if (reply.ok()) {
        ++res.ok;
        lat_ms.push_back(ns / 1e6);
        h_latency.observe(ns);
      } else {
        ++res.rejected;
        if (reply.status == serve::net::WireStatus::kBusyRetryAfter) {
          ++res.busy;
          if (reply.retry_after_ms >= 1 && reply.retry_after_ms <= 5000) {
            ++res.busy_hinted;
          }
        }
      }
    }
  });

  const auto start = clock::now();
  for (std::int64_t i = 0; i < total; ++i) {
    const auto due =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(
                        arrival_s[static_cast<std::size_t>(i)]));
    std::this_thread::sleep_until(due);  // pace the offered load, not the RTT
    sent_at[static_cast<std::size_t>(i)] = clock::now();
    client.send(rows[static_cast<std::size_t>(i % n)]);
  }
  receiver.join();

  const double wall =
      std::chrono::duration<double>(last_reply - start).count();
  res.achieved_rps =
      wall > 0.0 ? static_cast<double>(res.ok + res.rejected) / wall : 0.0;
  res.p50_ms = percentile(lat_ms, 0.50);
  res.p95_ms = percentile(lat_ms, 0.95);
  res.p99_ms = percentile(lat_ms, 0.99);
  res.accounted = res.ok + res.rejected == res.sent;
  return res;
}

/// Fixed-seed duplicate-traffic schedule: entry i names the row index request
/// i submits. A fresh row is drawn while the pool lasts with probability
/// 1 - dup_fraction; otherwise a uniformly random ALREADY-USED row repeats.
/// The exact duplicate count (total - distinct) is therefore known up front,
/// and because the reply cache computes each distinct row exactly once (the
/// first occurrence leads, repeats hit the entry or join it in flight —
/// either way counted as hits), cache hits must equal it EXACTLY no matter
/// how client threads interleave.
std::vector<std::int64_t> make_dup_schedule(std::int64_t total,
                                            std::int64_t pool,
                                            double dup_fraction,
                                            std::uint64_t seed,
                                            std::int64_t* distinct_out) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::int64_t> schedule;
  schedule.reserve(static_cast<std::size_t>(total));
  std::int64_t distinct = 0;
  for (std::int64_t i = 0; i < total; ++i) {
    const bool fresh =
        distinct == 0 || (distinct < pool && coin(rng) >= dup_fraction);
    if (fresh) {
      schedule.push_back(distinct++);
    } else {
      schedule.push_back(static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(distinct)));
    }
  }
  *distinct_out = distinct;
  return schedule;
}

/// Closed-loop clients over an explicit schedule (request r -> row
/// schedule[r]), collecting per-request logits for the cache bit gate. No
/// warm-up pass: warming would pre-populate the cache and corrupt the exact
/// hit/miss accounting, and the cache-off reference runs the identical cold
/// schedule so the throughput comparison stays symmetric.
LoadResult run_schedule_loop(serve::Server& server,
                             const std::vector<Tensor>& rows,
                             const std::vector<std::int64_t>& schedule,
                             std::int64_t clients,
                             std::vector<Tensor>& logits_out) {
  const auto total = static_cast<std::int64_t>(schedule.size());
  logits_out.assign(static_cast<std::size_t>(total), Tensor());
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (std::int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::int64_t r = c; r < total; r += clients) {
        const auto row =
            static_cast<std::size_t>(schedule[static_cast<std::size_t>(r)]);
        auto reply = server.submit(rows[row]).get();
        if (reply.ok()) {
          logits_out[static_cast<std::size_t>(r)] = std::move(reply.logits);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult res;
  res.seconds = wall.seconds();
  res.throughput = static_cast<double>(total) / res.seconds;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool cache_smoke = false;  // reply-cache sweep only (bench_serve_cache_smoke)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--cache-smoke") == 0) cache_smoke = true;
  }
  const bool tiny = smoke || cache_smoke;  // tiny shapes, mlp only
  const bool full_sections = !cache_smoke;
  print_header(cache_smoke
                   ? "bench_serve --cache-smoke: reply-cache gates only"
                   : (smoke ? "bench_serve --smoke: contract gates, tiny load"
                            : "bench_serve: micro-batching A/B + load sweep"));

  JsonReporter reporter(env::get_string(
      "IBRAR_BENCH_OUT", cache_smoke
                             ? "BENCH_smoke_serve_cache.json"
                             : (smoke ? "BENCH_smoke_serve.json"
                                      : "BENCH_pr9.json")));

  // Untrained-but-published weights are fine for a serving perf A/B; accuracy
  // equality between modes is what matters, not its absolute level. Smoke
  // keeps everything tiny so the CTest target runs in seconds.
  const std::int64_t test_size = tiny ? 64 : 256;
  const std::int64_t total = tiny ? 128 : 1024;
  const std::int64_t warmup = tiny ? 16 : 64;
  const auto data = data::make_dataset("synth-cifar10", /*train=*/8, test_size);
  const auto rows = stage_rows(data.test);
  const Shape chw = {data.test.channels(), data.test.height(),
                     data.test.width()};

  // Two models under test: the dense classifier tier (a 256-wide MLP head,
  // where micro-batching converts per-request weight streaming into cached
  // reuse — the canonical batching win) and the full MiniVGG conv stack
  // (compute-linear per row on one core, so batching buys mostly overhead
  // amortization there; both are reported so the record shows where the win
  // comes from).
  struct ModelUnderTest {
    std::string label;
    models::TapClassifierPtr model;      ///< published normally (plan)
    models::TapClassifierPtr reference;  ///< same seed, layer-by-layer path
  };
  // Each entry is a PAIR of same-seed instances (bit-identical weights): the
  // serving registry publishes one with the default snapshot-time prepack
  // (the lowered inference plan), while the serial-baseline registry
  // publishes the other with prepack=false, pinning it to the layer-by-layer
  // eval. The batched-vs-serial speedups below therefore include the
  // fused-kernel win, and the bit gates check plan-vs-reference on every
  // single request.
  std::vector<ModelUnderTest> models_under_test;
  {
    Rng rng_a(42), rng_b(42);
    models::MLPConfig mcfg;
    mcfg.in_features = chw[0] * chw[1] * chw[2];
    mcfg.hidden = {256, 256};
    mcfg.num_classes = data.test.num_classes;
    models_under_test.push_back(
        {"mlp256", std::make_shared<models::MLP>(mcfg, rng_a),
         std::make_shared<models::MLP>(mcfg, rng_b)});
  }
  if (!tiny) {
    models::ModelSpec spec;
    spec.name = "vgg16";
    spec.num_classes = data.test.num_classes;
    spec.image_size = chw[1];
    spec.in_channels = chw[0];
    Rng rng_a(43), rng_b(43);
    models_under_test.push_back({"vgg16", models::make_model(spec, rng_a),
                                 models::make_model(spec, rng_b)});
  }

  struct SweepPoint {
    std::int64_t clients;
    std::int64_t max_batch;
    std::int64_t deadline_us;
  };
  const std::vector<SweepPoint> sweep =
      smoke ? std::vector<SweepPoint>{{4, 4, 2000}}
            : std::vector<SweepPoint>{{4, 4, 500},
                                      {4, 4, 2000},
                                      {8, 8, 2000},
                                      {16, 16, 2000},
                                      {32, 32, 4000}};

  int failures = 0;
  double headline_speedup = 0.0;
  serve::ModelRegistry telemetry_registry;  // reuses the first model

  for (auto& mut : models_under_test) {
    const double flops = flops_per_request(mut.label, chw,
                                           data.test.num_classes);
    serve::ModelRegistry registry;
    registry.publish(mut.model, chw, mut.label);
    serve::ModelRegistry ref_registry;  // layer-by-layer serial baseline
    ref_registry.publish(mut.reference, chw, mut.label + "-ref",
                         /*prepack=*/false);
    if (&mut == &models_under_test.front()) {
      telemetry_registry.publish(mut.model, chw, mut.label);
    }

    if (full_sections) {
    // ---- batch=1 serial baseline (reference eval path) ---------------------
    serve::ServeConfig serial_cfg;
    serial_cfg.max_batch = 1;
    serial_cfg.deadline_us = 0;
    serial_cfg.queue_capacity = 2048;
    std::vector<Tensor> serial_logits;
    LoadResult serial;
    {
      serve::Server server(ref_registry, serial_cfg);
      serial = run_closed_loop(server, data.test, rows, total, /*clients=*/1,
                               &serial_logits, warmup);
    }
    std::printf("  %-7s serial batch=1                             : %9.1f "
                "req/s  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms  acc %.3f\n",
                mut.label.c_str(), serial.throughput, serial.p50_ms,
                serial.p95_ms, serial.p99_ms, serial.accuracy);
    add_row(reporter, "serve/" + mut.label + "/serial", "clients=1,max_batch=1",
            serial, 1.0, true, flops);

    // ---- dynamic micro-batching sweep: clients x deadline ------------------
    for (const auto& pt : sweep) {
      serve::ServeConfig cfg;
      cfg.max_batch = pt.max_batch;
      cfg.deadline_us = pt.deadline_us;
      cfg.queue_capacity = 2048;
      std::vector<Tensor> logits;
      LoadResult r;
      {
        serve::Server server(registry, cfg);
        r = run_closed_loop(server, data.test, rows, total, pt.clients,
                            &logits, warmup);
      }
      // Bit-identity gate: every request must match the serial run exactly.
      bool bits_ok = logits.size() == serial_logits.size();
      for (std::size_t i = 0; bits_ok && i < logits.size(); ++i) {
        bits_ok = tensor_bits_equal(logits[i], serial_logits[i]);
      }
      const double speedup = r.throughput / serial.throughput;
      headline_speedup = std::max(headline_speedup, speedup);
      const std::string shape = "clients=" + std::to_string(pt.clients) +
                                ",max_batch=" + std::to_string(pt.max_batch) +
                                ",deadline_us=" +
                                std::to_string(pt.deadline_us);
      std::printf("  %-7s batched %-34s: %9.1f req/s  p50 %6.2f ms  p95 %6.2f "
                  "ms  p99 %6.2f ms  acc %.3f  maxB %2llu  speedup %5.2fx  "
                  "bits %s\n",
                  mut.label.c_str(), shape.c_str(), r.throughput, r.p50_ms,
                  r.p95_ms, r.p99_ms, r.accuracy,
                  static_cast<unsigned long long>(r.max_batch_observed),
                  speedup, bits_ok ? "OK" : "MISMATCH");
      add_row(reporter, "serve/" + mut.label + "/batched", shape, r, speedup,
              bits_ok, flops);
      if (!bits_ok) {
        std::fprintf(stderr, "FAIL: %s batched logits differ from batch=1 "
                     "(%s)\n", mut.label.c_str(), shape.c_str());
        ++failures;
      }
      if (r.accuracy != serial.accuracy) {
        std::fprintf(stderr,
                     "FAIL: %s batched accuracy %.4f != serial %.4f (%s)\n",
                     mut.label.c_str(), r.accuracy, serial.accuracy,
                     shape.c_str());
        ++failures;
      }
    }

    // ---- multi-worker scaling, telemetry ON --------------------------------
    // The combination the const-forward refactor legalized: several worker
    // threads share one immutable snapshot while the telemetry path reads
    // taps from their concurrent forwards. The gate is the same as above —
    // every request's logits memcmp-equal to the batch=1 single-worker run.
    const std::vector<std::int64_t> worker_counts =
        smoke ? std::vector<std::int64_t>{2} : std::vector<std::int64_t>{1, 2, 4};
    for (const auto workers : worker_counts) {
      serve::ServeConfig cfg;
      cfg.max_batch = 8;
      cfg.deadline_us = 2000;
      cfg.queue_capacity = 2048;
      cfg.workers = workers;
      cfg.telemetry.sample_every = 8;
      cfg.telemetry.window = 16;
      std::vector<Tensor> logits;
      LoadResult r;
      {
        serve::Server server(registry, cfg);
        r = run_closed_loop(server, data.test, rows, total,
                            /*clients=*/smoke ? 8 : 16, &logits, warmup);
      }
      bool bits_ok = logits.size() == serial_logits.size();
      for (std::size_t i = 0; bits_ok && i < logits.size(); ++i) {
        bits_ok = tensor_bits_equal(logits[i], serial_logits[i]);
      }
      const double speedup = r.throughput / serial.throughput;
      const std::string shape =
          "workers=" + std::to_string(workers) +
          ",clients=" + std::to_string(smoke ? 8 : 16) +
          ",max_batch=8,deadline_us=2000,telemetry_every=8";
      std::printf("  %-7s workers=%lld telemetry on               : %9.1f "
                  "req/s  p50 %6.2f ms  p99 %6.2f ms  speedup %5.2fx  bits "
                  "%s\n",
                  mut.label.c_str(), static_cast<long long>(workers),
                  r.throughput, r.p50_ms, r.p99_ms, speedup,
                  bits_ok ? "OK" : "MISMATCH");
      add_row(reporter, "serve/" + mut.label + "/workers", shape, r, speedup,
              bits_ok, flops);
      if (!bits_ok) {
        std::fprintf(stderr,
                     "FAIL: %s workers=%lld telemetry-on logits differ from "
                     "batch=1 single-worker\n",
                     mut.label.c_str(), static_cast<long long>(workers));
        ++failures;
      }
    }
    }  // full_sections

    // ---- reply-cache duplicate-traffic sweep -------------------------------
    // The same fixed-seed schedule runs twice — cache off (the reference and
    // the speedup denominator), then cache on. Gates: per-request logits
    // memcmp-equal between the runs, hits exactly the schedule's duplicate
    // count, misses exactly its distinct count, and (full mode) vgg16 at 90%
    // duplicates at least 2x the cache-off throughput.
    {
      const std::int64_t dup_total = tiny ? 64 : 256;
      const std::int64_t pool =
          std::min(dup_total, static_cast<std::int64_t>(rows.size()));
      const std::int64_t dup_clients = 8;
      for (const double dup : {0.0, 0.5, 0.9}) {
        std::int64_t distinct = 0;
        const auto schedule = make_dup_schedule(
            dup_total, pool, dup, /*seed=*/0xcafef00d + mut.label.size(),
            &distinct);
        const std::int64_t duplicates = dup_total - distinct;

        serve::ServeConfig cfg;
        cfg.max_batch = 8;
        cfg.deadline_us = 500;
        cfg.queue_capacity = 2048;
        cfg.workers = 2;
        std::vector<Tensor> off_logits, on_logits;
        LoadResult off, on;
        {
          serve::Server server(registry, cfg);  // cache_bytes = 0: off
          off = run_schedule_loop(server, rows, schedule, dup_clients,
                                  off_logits);
        }
        serve::ServerStats cache_stats;
        {
          cfg.cache_bytes = std::size_t{64} << 20;
          serve::Server server(registry, cfg);
          on = run_schedule_loop(server, rows, schedule, dup_clients,
                                 on_logits);
          cache_stats = server.stats();
        }

        bool bits_ok = on_logits.size() == off_logits.size();
        for (std::size_t i = 0; bits_ok && i < on_logits.size(); ++i) {
          bits_ok = tensor_bits_equal(on_logits[i], off_logits[i]);
        }
        const bool counts_ok =
            cache_stats.cache_lookups ==
                static_cast<std::uint64_t>(dup_total) &&
            cache_stats.cache_hits ==
                static_cast<std::uint64_t>(duplicates) &&
            cache_stats.cache_misses ==
                static_cast<std::uint64_t>(distinct) &&
            cache_stats.served == static_cast<std::uint64_t>(distinct);
        const double speedup = on.throughput / off.throughput;
        std::printf("  %-7s cache dup=%.1f (%3lld distinct/%3lld)        : "
                    "%9.1f req/s off  %9.1f req/s on  speedup %5.2fx  hits "
                    "%llu  bits %s  counts %s\n",
                    mut.label.c_str(), dup, static_cast<long long>(distinct),
                    static_cast<long long>(dup_total), off.throughput,
                    on.throughput, speedup,
                    static_cast<unsigned long long>(cache_stats.cache_hits),
                    bits_ok ? "OK" : "MISMATCH",
                    counts_ok ? "OK" : "WRONG");
        BenchRecord rec;
        rec.kernel = "serve/" + mut.label + "/cache";
        rec.shape = "dup=" + std::to_string(dup) +
                    ",clients=" + std::to_string(dup_clients) +
                    ",max_batch=8,deadline_us=500,workers=2";
        rec.ns_per_op = 1e9 / on.throughput;
        rec.gflops = flops / rec.ns_per_op;
        rec.threads = runtime::num_threads();
        rec.checksum = static_cast<double>(cache_stats.cache_hits);
        rec.speedup_vs_naive = speedup;  // vs the cache-off run
        rec.bit_identical = bits_ok && counts_ok;
        rec.extra = {{"hits", static_cast<double>(cache_stats.cache_hits)},
                     {"misses", static_cast<double>(cache_stats.cache_misses)},
                     {"inflight_joins",
                      static_cast<double>(cache_stats.cache_inflight_joins)},
                     {"hit_rate", static_cast<double>(cache_stats.cache_hits) /
                                      static_cast<double>(dup_total)}};
        reporter.add(rec);
        if (!bits_ok) {
          std::fprintf(stderr,
                       "FAIL: %s cached logits differ from cache-off run "
                       "(dup=%.1f)\n", mut.label.c_str(), dup);
          ++failures;
        }
        if (!counts_ok) {
          std::fprintf(
              stderr,
              "FAIL: %s cache accounting wrong at dup=%.1f: lookups %llu "
              "(want %lld) hits %llu (want %lld) misses %llu (want %lld) "
              "served %llu (want %lld)\n",
              mut.label.c_str(), dup,
              static_cast<unsigned long long>(cache_stats.cache_lookups),
              static_cast<long long>(dup_total),
              static_cast<unsigned long long>(cache_stats.cache_hits),
              static_cast<long long>(duplicates),
              static_cast<unsigned long long>(cache_stats.cache_misses),
              static_cast<long long>(distinct),
              static_cast<unsigned long long>(cache_stats.served),
              static_cast<long long>(distinct));
          ++failures;
        }
        if (!tiny && mut.label == "vgg16" && dup == 0.9 && speedup < 2.0) {
          std::fprintf(stderr,
                       "FAIL: vgg16 at 90%% duplicates sped up only %.2fx "
                       "(gate: >= 2x over cache-off)\n", speedup);
          ++failures;
        }
      }
    }
  }

  // ---- telemetry overhead row ----------------------------------------------
  if (full_sections) {
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.deadline_us = 2000;
    cfg.queue_capacity = 2048;
    cfg.telemetry.sample_every = 8;
    cfg.telemetry.window = 16;
    serve::Server server(telemetry_registry, cfg);
    const auto r = run_closed_loop(server, data.test, rows, total,
                                   /*clients=*/8, nullptr, warmup);
    const auto stats = server.stats();
    std::printf("  telemetry every 8th : %9.1f req/s  p99 %6.2f ms  sampled "
                "%llu  epochs %llu\n",
                r.throughput, r.p99_ms,
                static_cast<unsigned long long>(stats.telemetry_samples),
                static_cast<unsigned long long>(server.monitor().score_epoch()));
    add_row(reporter, "serve/telemetry",
            "clients=8,max_batch=8,deadline_us=2000,every=8", r, 0.0, true,
            flops_per_request("mlp256", chw, data.test.num_classes));
    if (stats.telemetry_samples == 0) {
      std::fprintf(stderr, "FAIL: telemetry sampled nothing at every=8\n");
      ++failures;
    }
  }

  // ---- backpressure contract under flood -----------------------------------
  if (full_sections) {
    serve::ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.deadline_us = 1000;
    cfg.queue_capacity = 8;
    serve::Server server(telemetry_registry, cfg);
    const std::int64_t flood = smoke ? 64 : 256;
    const Tensor& x = rows.front();
    std::vector<std::future<serve::Reply>> futures;
    futures.reserve(static_cast<std::size_t>(flood));
    for (std::int64_t i = 0; i < flood; ++i) {
      futures.push_back(server.submit(x));
    }
    // Every queue-full reject must arrive as kBusyRetryAfter carrying a
    // clamped hint; no other status may appear.
    std::uint64_t ok = 0, busy = 0, other = 0;
    bool hints_ok = true;
    for (auto& f : futures) {
      const auto r = f.get();
      if (r.status == serve::ReplyStatus::kOk) {
        ++ok;
      } else if (r.status == serve::ReplyStatus::kBusyRetryAfter) {
        ++busy;
        hints_ok = hints_ok && r.retry_after_ms >= 1 && r.retry_after_ms <= 5000;
      } else {
        ++other;
      }
    }
    const auto stats = server.stats();
    const bool contract_ok = other == 0 && hints_ok &&
                             ok + busy == static_cast<std::uint64_t>(flood) &&
                             stats.accepted == ok &&
                             stats.rejected_full == busy &&
                             stats.admission_busy == busy && stats.served == ok;
    std::printf("  backpressure flood   : offered %lld  served %llu  busy "
                "%llu  contract %s\n",
                static_cast<long long>(flood),
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(busy),
                contract_ok ? "OK" : "VIOLATED");
    BenchRecord rec;
    rec.kernel = "serve/backpressure";
    rec.shape = "flood=" + std::to_string(flood) + ",queue_cap=8";
    rec.checksum = static_cast<double>(busy);
    rec.threads = runtime::num_threads();
    rec.bit_identical = contract_ok;
    reporter.add(rec);
    if (!contract_ok) {
      std::fprintf(stderr, "FAIL: backpressure contract violated\n");
      ++failures;
    }
  }

  // ---- open-loop Poisson load through the TCP front-end --------------------
  // Offered rates are fractions of the measured closed-loop capacity, so the
  // sweep lands at comparable utilization on any machine. The low-rate rows
  // read near-pure service latency; the high-rate row shows queueing delay —
  // the tail a closed-loop client can never expose.
  if (full_sections) {
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.deadline_us = 2000;
    cfg.queue_capacity = 2048;
    cfg.workers = smoke ? 2 : 4;
    cfg.telemetry.sample_every = 8;
    cfg.telemetry.window = 16;
    serve::Server server(telemetry_registry, cfg);
    serve::net::TcpFrontend frontend(server);
    // Closed-loop capacity probe on this exact server (also the warm-up).
    const auto probe = run_closed_loop(server, data.test, rows,
                                       smoke ? 64 : 256, /*clients=*/8);
    const std::vector<double> utilization =
        smoke ? std::vector<double>{0.3} : std::vector<double>{0.25, 0.5, 0.8};
    for (const auto u : utilization) {
      const double offered = std::max(u * probe.throughput, 50.0);
      const std::int64_t n_requests = smoke ? 64 : 512;
      const auto r = run_open_loop(frontend.port(), rows, offered, n_requests);
      std::printf("  openloop %4.0f%% cap  : offered %8.1f req/s  achieved "
                  "%8.1f  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms  ok %llu  "
                  "rej %llu  %s\n",
                  u * 100.0, r.offered_rps, r.achieved_rps, r.p50_ms, r.p95_ms,
                  r.p99_ms, static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.rejected),
                  r.accounted ? "accounted" : "LOST REPLIES");
      BenchRecord rec;
      rec.kernel = "serve/openloop";
      rec.shape = "offered_rps=" + std::to_string(static_cast<long long>(
                      offered)) +
                  ",workers=" + std::to_string(cfg.workers) +
                  ",max_batch=8,deadline_us=2000";
      rec.ns_per_op = r.achieved_rps > 0.0 ? 1e9 / r.achieved_rps : 0.0;
      rec.gflops = rec.ns_per_op > 0.0
                       ? flops_per_request("mlp256", chw,
                                           data.test.num_classes) /
                             rec.ns_per_op
                       : 0.0;
      rec.threads = runtime::num_threads();
      rec.checksum = r.p99_ms;
      rec.bit_identical = r.accounted;
      rec.extra = {{"p50_ms", r.p50_ms},
                   {"p95_ms", r.p95_ms},
                   {"p99_ms", r.p99_ms},
                   {"offered_rps", r.offered_rps},
                   {"achieved_rps", r.achieved_rps}};
      reporter.add(rec);
      if (!r.accounted) {
        std::fprintf(stderr,
                     "FAIL: open-loop at %.1f req/s lost replies "
                     "(sent %llu, ok %llu, rejected %llu)\n",
                     offered, static_cast<unsigned long long>(r.sent),
                     static_cast<unsigned long long>(r.ok),
                     static_cast<unsigned long long>(r.rejected));
        ++failures;
      }
    }
    frontend.stop();
  }

  // ---- open-loop saturation: busy-retry-after must dominate overload -------
  // A deliberately small queue behind the whole schedule sent as one unpaced
  // burst (three times the queue, whatever the host's speed or load): the
  // overload answer the socket sees must be kBusyRetryAfter with a usable
  // hint on EVERY reject — a hint-less reject would force clients back to
  // blind exponential backoff.
  if (full_sections) {
    serve::ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.deadline_us = 1000;
    cfg.queue_capacity = 32;
    serve::Server server(telemetry_registry, cfg);
    serve::net::TcpFrontend frontend(server);
    const std::int64_t n_requests = smoke ? 96 : 512;
    const auto r = run_open_loop(frontend.port(), rows, /*offered_rps=*/0.0,
                                 n_requests);
    const bool saturated_ok = r.accounted && r.busy > 0 &&
                              r.busy == r.rejected &&
                              r.busy_hinted == r.busy;
    std::printf("  openloop saturation  : burst %lld  ok %llu  busy %llu "
                "(hinted %llu)  %s\n",
                static_cast<long long>(n_requests),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.busy),
                static_cast<unsigned long long>(r.busy_hinted),
                saturated_ok ? "OK" : "VIOLATED");
    BenchRecord rec;
    rec.kernel = "serve/openloop_saturation";
    rec.shape = "burst=" + std::to_string(n_requests) +
                ",queue_cap=32,max_batch=4,deadline_us=1000";
    rec.ns_per_op = r.achieved_rps > 0.0 ? 1e9 / r.achieved_rps : 0.0;
    rec.threads = runtime::num_threads();
    rec.checksum = static_cast<double>(r.busy);
    rec.bit_identical = saturated_ok;
    rec.extra = {{"p99_ms", r.p99_ms},
                 {"achieved_rps", r.achieved_rps},
                 {"busy", static_cast<double>(r.busy)},
                 {"busy_hinted", static_cast<double>(r.busy_hinted)}};
    reporter.add(rec);
    if (!saturated_ok) {
      std::fprintf(stderr,
                   "FAIL: open-loop saturation overload was not all "
                   "kBusyRetryAfter-with-hint (ok %llu, rejected %llu, busy "
                   "%llu, hinted %llu, accounted %d)\n",
                   static_cast<unsigned long long>(r.ok),
                   static_cast<unsigned long long>(r.rejected),
                   static_cast<unsigned long long>(r.busy),
                   static_cast<unsigned long long>(r.busy_hinted),
                   r.accounted ? 1 : 0);
      ++failures;
    }
    frontend.stop();
  }

  reporter.write();
  if (!tiny && headline_speedup < 3.0) {
    std::fprintf(stderr,
                 "WARN: best batched speedup %.2fx is below the 3x target\n",
                 headline_speedup);
  }
  if (failures != 0) {
    std::fprintf(stderr, "bench_serve: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_serve: all gates passed (best speedup %.2fx)\n",
              headline_speedup);
  return 0;
}
