// Observability layer: sharded-metric exactness, histogram percentile
// bracketing vs a sorted reference, snapshot determinism, span
// nesting/sampling, the observation-never-changes-computation bit-identity
// contract, the < 100 ns cost of a disabled profile scope, and the server's
// five-stage trace integration.
//
// Tracing and profiling flags are process-global; every test that flips one
// restores it through ObsStateGuard so test order never matters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/admin.hpp"
#include "serve/server.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/conv.hpp"
#include "tensor/random.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

/// Restore global obs toggles (trace cadence, profiling flag, rings, sites)
/// on scope exit.
struct ObsStateGuard {
  ObsStateGuard()
      : saved_k_(obs::trace_sample_every()),
        saved_prof_(obs::profiling_enabled()) {}
  ~ObsStateGuard() {
    obs::set_trace_sample_every(saved_k_);
    obs::set_profiling_enabled(saved_prof_);
    obs::clear_trace();
    obs::reset_profile();
  }
  std::int64_t saved_k_;
  bool saved_prof_;
};

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, ConcurrentCounterIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, GaugeSetMaxIsMonotone) {
  obs::Gauge g;
  g.set(3.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(2.0);  // plain set may lower
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramPercentilesBracketSortedReference) {
  // Log-uniform values across ~9 decades stress every bucket regime.
  obs::Histogram h;
  Rng rng(42);
  std::vector<double> vals;
  constexpr int kN = 20000;
  vals.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const double u = static_cast<double>(rng.uniform());  // [0, 1)
    vals.push_back(std::pow(10.0, -2.0 + 9.0 * u));
  }
  for (double v : vals) h.observe(v);
  std::sort(vals.begin(), vals.end());

  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, static_cast<std::uint64_t>(kN));
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * kN)));
    const double truth = vals[rank - 1];
    const double est = snap.percentile(q);
    // Contract: estimate brackets the true order statistic from above,
    // within one sub-bucket (12.5% relative width; epsilon for fp slack).
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(est, truth * 1.1251) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.max, vals.back());
  EXPECT_LE(snap.percentile(1.0), vals.back() * (1.0 + 1e-12));
}

TEST(Metrics, HistogramSnapshotIsDeterministicOnceQuiescent) {
  obs::Histogram h;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < 10000; ++i) {
        h.observe(static_cast<double>((t * 10000 + i) % 977 + 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  const obs::HistogramSnapshot a = h.snapshot();
  const obs::HistogramSnapshot b = h.snapshot();  // merge-on-read, no writers
  EXPECT_EQ(a.count, 40000u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t n : a.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, a.count);  // every observation lands in one bucket
}

TEST(Metrics, RegistryHandlesAreStableAndSnapshotSeesThem) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("test.requests");
  obs::Counter& c2 = reg.counter("test.requests");
  EXPECT_EQ(&c1, &c2);  // find-or-create returns the same metric
  c1.inc(5);
  reg.gauge("test.depth").set(3.0);
  reg.histogram("test.lat").observe(4.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.count("test.requests"), 1u);
  EXPECT_EQ(snap.counters.at("test.requests"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.depth"), 3.0);
  EXPECT_EQ(snap.histograms.at("test.lat").count, 1u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"test.requests\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one JSON object, one line
}

// ---- tracing ----------------------------------------------------------------

TEST(Trace, SamplingCadenceGatesByIndex) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(0);
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_FALSE(obs::trace_should_sample(0));
  obs::set_trace_sample_every(3);
  EXPECT_TRUE(obs::trace_should_sample(0));
  EXPECT_FALSE(obs::trace_should_sample(1));
  EXPECT_FALSE(obs::trace_should_sample(2));
  EXPECT_TRUE(obs::trace_should_sample(3));
  EXPECT_TRUE(obs::trace_should_sample(6));
}

TEST(Trace, InactiveSpansRecordNothing) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(0);
  obs::clear_trace();
  {
    obs::Span s("invisible");  // default active = trace_enabled() = false
  }
  EXPECT_TRUE(obs::trace_records().empty());
}

TEST(Trace, NestedSpansRecordOrderedTimestamps) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(1);
  obs::clear_trace();
  {
    obs::Span outer("outer", true, 7);
    obs::Span inner("inner", true, 7);
  }  // inner destructs first, then outer
  const std::vector<obs::SpanRecord> recs = obs::trace_records();
  ASSERT_EQ(recs.size(), 2u);
  const obs::SpanRecord& inner = recs[0];  // recorded first
  const obs::SpanRecord& outer = recs[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_LE(outer.begin_ns, inner.begin_ns);
  EXPECT_LE(inner.begin_ns, inner.end_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_EQ(inner.corr, 7u);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST(Trace, JsonIsChromeTraceShaped) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(1);
  obs::clear_trace();
  obs::record_span("stage_a", 1000, 2500, 42);
  obs::record_span("stage_b", 2500, 3000, 42);
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"stage_a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"req\":42"), std::string::npos);

  const std::string path = "test_obs_trace.json";
  obs::dump_trace(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

// ---- profiling & the bit-identity contract ---------------------------------

TEST(Profile, DisabledScopeRecordsNothingEnabledAggregates) {
  ObsStateGuard guard;
  obs::reset_profile();
  obs::ProfileSite& site = obs::profile_site("test/obs_site");

  obs::set_profiling_enabled(false);
  {
    obs::ProfileScope s(site);
  }
  for (const auto& e : obs::profile_table()) {
    EXPECT_NE(e.name, "test/obs_site");
  }

  obs::set_profiling_enabled(true);
  for (int i = 0; i < 3; ++i) {
    obs::ProfileScope s(site);
  }
  bool found = false;
  for (const auto& e : obs::profile_table()) {
    if (e.name == "test/obs_site") {
      found = true;
      EXPECT_EQ(e.calls, 3u);
      EXPECT_GE(e.total_ns, 0);
    }
  }
  EXPECT_TRUE(found);
  obs::reset_profile();
  for (const auto& e : obs::profile_table()) {
    EXPECT_NE(e.name, "test/obs_site");
  }
}

TEST(Profile, Conv2dIsBitIdenticalWithProfilingOn) {
  ObsStateGuard guard;
  Rng rng(7);
  const Tensor x = randn({2, 3, 8, 8}, rng);
  const Tensor w = randn({4, 3, 3, 3}, rng);
  Conv2dSpec spec;

  obs::set_profiling_enabled(false);
  const Tensor off = conv2d(x, w, nullptr, spec);
  obs::set_profiling_enabled(true);
  const Tensor on = conv2d(x, w, nullptr, spec);

  ASSERT_TRUE(off.same_shape(on));
  EXPECT_EQ(std::memcmp(off.data().data(), on.data().data(),
                        sizeof(float) * static_cast<std::size_t>(off.numel())),
            0);
  // The profiled run attributed time to the instrumented kernels: conv2d
  // and the driver's implicit-im2col pack inside it.
  std::set<std::string> names;
  for (const auto& e : obs::profile_table()) names.insert(e.name);
  EXPECT_TRUE(names.count("tensor/conv2d")) << "profile table missing conv2d";
  EXPECT_TRUE(names.count("tensor/conv_eval/pack_b"));
}

TEST(Profile, Conv2dInputGradSplitsPackKernelAndScatter) {
  // The input gradient's three parts each have a site, so a profiled step
  // says which of them the backward's time went to; profiling them changes
  // no bit. A 2x2 map (4 positions, not a whole NR-column strip) packs g; an
  // 8x8 map reads it in place and records no pack.
  ObsStateGuard guard;
  Rng rng(9);
  const Conv2dSpec spec;
  const Tensor w = randn({6, 4, 3, 3}, rng);
  for (const std::int64_t hw : {2, 8}) {
    const Shape x_shape{3, 4, hw, hw};
    const Tensor g = randn({3, 6, hw, hw}, rng);
    obs::reset_profile();
    obs::set_profiling_enabled(false);
    const Tensor off = conv2d_input_grad(g, x_shape, w, spec);
    obs::set_profiling_enabled(true);
    const Tensor on = conv2d_input_grad(g, x_shape, w, spec);

    ASSERT_TRUE(off.same_shape(on));
    EXPECT_EQ(
        std::memcmp(off.data().data(), on.data().data(),
                    sizeof(float) * static_cast<std::size_t>(off.numel())),
        0)
        << hw << "x" << hw;
    std::set<std::string> names;
    for (const auto& e : obs::profile_table()) names.insert(e.name);
    for (const char* site : {"tensor/conv2d_input_grad/kernel",
                             "tensor/conv2d_input_grad/scatter"}) {
      EXPECT_TRUE(names.count(site))
          << hw << "x" << hw << ": profile table missing " << site;
    }
    EXPECT_EQ(names.count("tensor/conv2d_input_grad/pack_b"), hw == 2 ? 1u : 0u)
        << hw << "x" << hw;
  }
}

TEST(Profile, GemmPackedIsBitIdenticalWithProfilingOn) {
  ObsStateGuard guard;
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Rng rng(0x0b5e70b5u);
  const Tensor a = randn({256, 256}, rng);
  const Tensor b = randn({256, 256}, rng);
  Tensor off({256, 256}), on({256, 256});
  obs::set_profiling_enabled(false);
  gemm_packed(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
              GemmLayout::kRowMajor, off.data().data(), 256, 256, 256);
  obs::set_profiling_enabled(true);
  gemm_packed(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
              GemmLayout::kRowMajor, on.data().data(), 256, 256, 256);
  runtime::set_num_threads(lanes0);
  EXPECT_EQ(std::memcmp(off.data().data(), on.data().data(),
                        sizeof(float) * static_cast<std::size_t>(off.numel())),
            0);
}

TEST(Profile, DisabledScopeCostsUnder100Ns) {
  // The permanent hook every kernel pays: with profiling off a scope is one
  // relaxed flag load. Best of five runs of 4M scopes.
  ObsStateGuard guard;
  obs::set_profiling_enabled(false);
  obs::ProfileSite& site = obs::profile_site("test/disabled_site");
  constexpr std::int64_t kScopes = 4'000'000;
  const double ns = best_wall_ns(5, [&site] {
                      for (std::int64_t i = 0; i < kScopes; ++i) {
                        obs::ProfileScope scope(site);
                      }
                    }) /
                    static_cast<double>(kScopes);
  SKIP_UNLESS_TIMING_BUILD() << ns << " ns per disabled scope";
  EXPECT_LT(ns, 100.0);
}

// ---- server integration -----------------------------------------------------

constexpr std::int64_t kSize = 4;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kClasses = 5;

models::TapClassifierPtr tiny_model(std::uint64_t seed) {
  models::ModelSpec spec;
  spec.name = "mlp";
  spec.num_classes = kClasses;
  spec.image_size = kSize;
  spec.in_channels = kChannels;
  Rng rng(seed);
  return models::make_model(spec, rng);
}

Tensor sample_input(std::uint64_t seed) {
  Rng rng(seed);
  return rand_uniform({kChannels, kSize, kSize}, rng, 0.0f, 1.0f);
}

TEST(ServerObs, TracedRequestEmitsAllServingStageSpans) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(1);  // trace every request
  obs::clear_trace();

  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.deadline_us = 500;
  cfg.queue_capacity = 64;
  cfg.telemetry.sample_every = 1;  // rescore everything -> span present
  {
    serve::Server server(reg, cfg);
    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 6; ++i) futs.push_back(server.submit(sample_input(i)));
    for (auto& f : futs) EXPECT_EQ(f.get().status, serve::ReplyStatus::kOk);
    server.shutdown();
  }

  std::set<std::string> names;
  for (const auto& r : obs::trace_records()) names.insert(r.name);
  for (const char* stage : {"admission", "queue_wait", "batch_assembly",
                            "compute", "telemetry_rescore", "reply"}) {
    EXPECT_TRUE(names.count(stage)) << "missing span: " << stage;
  }
}

TEST(ServerObs, StatsAreBaselineDeltaedPerServerInstance) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(0);
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.deadline_us = 200;
  cfg.queue_capacity = 64;

  {
    serve::Server a(reg, cfg);
    for (int i = 0; i < 3; ++i) a.submit(sample_input(i)).get();
    a.shutdown();
    const serve::ServerStats sa = a.stats();
    EXPECT_EQ(sa.accepted, 3u);
    EXPECT_EQ(sa.served, 3u);
  }
  {
    // The registry keeps cumulating, but a fresh server reports only its own
    // traffic: the construction-time baseline is subtracted.
    serve::Server b(reg, cfg);
    for (int i = 0; i < 2; ++i) b.submit(sample_input(i)).get();
    b.shutdown();
    const serve::ServerStats sb = b.stats();
    EXPECT_EQ(sb.accepted, 2u);
    EXPECT_EQ(sb.served, 2u);
    EXPECT_GE(sb.batches, 1u);
    EXPECT_EQ(sb.size_triggers + sb.deadline_triggers + sb.drain_triggers,
              sb.batches);
  }
  // The global registry saw both servers.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_GE(snap.counters.at("serve.accepted"), 5u);
}

TEST(ServerObs, LogitsBitIdenticalWithEveryObservabilityKnobOn) {
  // The full contract: tracing + profiling + telemetry all on must not
  // change a single output bit vs everything off.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(3), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 1;  // singleton batches -> deterministic batching
  cfg.deadline_us = 0;
  cfg.queue_capacity = 64;

  constexpr int kReqs = 4;
  std::vector<Tensor> off_logits, on_logits;
  {
    ObsStateGuard guard;
    obs::set_trace_sample_every(0);
    obs::set_profiling_enabled(false);
    serve::Server server(reg, cfg);
    for (int i = 0; i < kReqs; ++i) {
      off_logits.push_back(server.submit(sample_input(100 + i)).get().logits);
    }
  }
  {
    ObsStateGuard guard;
    obs::set_trace_sample_every(1);
    obs::set_profiling_enabled(true);
    serve::ServeConfig cfg_on = cfg;
    cfg_on.telemetry.sample_every = 1;
    serve::Server server(reg, cfg_on);
    for (int i = 0; i < kReqs; ++i) {
      on_logits.push_back(server.submit(sample_input(100 + i)).get().logits);
    }
  }
  for (int i = 0; i < kReqs; ++i) {
    const Tensor& a = off_logits[static_cast<std::size_t>(i)];
    const Tensor& b = on_logits[static_cast<std::size_t>(i)];
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "logits differ for request " << i;
  }
}

TEST(Metrics, HistogramPercentilesBracketUnderConcurrentWriters) {
  // The shard-merge-on-read path must preserve the bracketing contract when
  // the observations arrive from 8 threads at once (each thread lands on its
  // own shard; snapshot() merges).
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<double> vals;
  vals.reserve(kThreads * kPerThread);
  {
    std::mutex mu;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(1000 + t));
        std::vector<double> mine;
        mine.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          const double u = static_cast<double>(rng.uniform());
          mine.push_back(std::pow(10.0, -2.0 + 9.0 * u));
        }
        for (double v : mine) h.observe(v);
        std::lock_guard<std::mutex> lk(mu);
        vals.insert(vals.end(), mine.begin(), mine.end());
      });
    }
    for (auto& t : ts) t.join();
  }
  std::sort(vals.begin(), vals.end());
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, vals.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(vals.size()))));
    const double truth = vals[rank - 1];
    const double est = snap.percentile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(est, truth * 1.1251) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.max, vals.back());
}

TEST(Metrics, PrometheusExpositionIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("prom.test.requests").inc(42);
  reg.gauge("prom.test.depth").set(-1.5);
  for (int i = 1; i <= 1000; ++i) {
    reg.histogram("prom.test.lat").observe(static_cast<double>(i) * 0.001);
  }
  const std::string text = reg.snapshot().to_prometheus();

  // Every non-comment line is `name{labels} value` with names in the
  // Prometheus charset (dots sanitized to underscores).
  EXPECT_NE(text.find("# TYPE prom_test_requests counter"), std::string::npos);
  EXPECT_NE(text.find("\nprom_test_requests 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("\nprom_test_depth -1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_test_lat histogram"), std::string::npos);
  EXPECT_EQ(text.find("prom.test"), std::string::npos);  // names sanitized

  // Histogram contract: le edges strictly ascending, cumulative counts
  // non-decreasing, and the mandatory +Inf bucket equals _count.
  std::vector<double> edges;
  std::vector<std::uint64_t> cums;
  std::uint64_t inf_count = 0, count_line = 0;
  double sum_line = -1.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.rfind("prom_test_lat_bucket{le=\"", 0) == 0) {
      const std::size_t q1 = line.find('"') + 1;
      const std::size_t q2 = line.find('"', q1);
      const std::string le = line.substr(q1, q2 - q1);
      const std::uint64_t cum =
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
      if (le == "+Inf") {
        inf_count = cum;
      } else {
        edges.push_back(std::strtod(le.c_str(), nullptr));
        cums.push_back(cum);
      }
    } else if (line.rfind("prom_test_lat_sum ", 0) == 0) {
      sum_line = std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    } else if (line.rfind("prom_test_lat_count ", 0) == 0) {
      count_line =
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    }
  }
  ASSERT_GE(edges.size(), 2u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]) << "le edges not ascending at " << i;
    EXPECT_LE(cums[i - 1], cums[i]) << "cumulative counts decreased at " << i;
  }
  EXPECT_EQ(count_line, 1000u);
  EXPECT_EQ(inf_count, count_line);  // exactly one +Inf line, riding _count
  EXPECT_EQ(cums.back(), count_line);
  EXPECT_NEAR(sum_line, 1000.0 * 1001.0 / 2.0 * 0.001, 1e-6);
}

TEST(Trace, RingOverwriteCountsDroppedSpansAndExportsThem) {
  ObsStateGuard guard;
  obs::set_trace_sample_every(1);
  obs::clear_trace();
  const std::uint64_t before =
      obs::registry().snapshot().counters.count("obs.trace.dropped_spans")
          ? obs::registry().snapshot().counters.at("obs.trace.dropped_spans")
          : 0;
  // Overflow this thread's ring (default cap 8192 records).
  for (int i = 0; i < 9000; ++i) {
    obs::record_span("overflow_test", i, i + 1,
                     static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(obs::trace_dropped(), 808u);
  // The cumulative registry counter moved by the same amount.
  const std::uint64_t after =
      obs::registry().snapshot().counters.at("obs.trace.dropped_spans");
  EXPECT_EQ(after - before, obs::trace_dropped());
  // The export carries the loss so dashboards can see truncation.
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"droppedSpans\":"), std::string::npos);
  EXPECT_EQ(json.find("\"droppedSpans\":0"), std::string::npos);
}

TEST(ServerObs, LogitsBitIdenticalWithContinuousTelemetryStackOn) {
  // PR-10 extension of the bit-identity contract: four workers, EWMA sliding
  // re-score, the background time-series sampler, SLO evaluation, and a live
  // admin endpoint scraping /metrics — all on — vs everything off.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(7), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 1;  // singleton batches -> deterministic batching
  cfg.deadline_us = 0;
  cfg.queue_capacity = 64;
  cfg.workers = 4;

  constexpr int kReqs = 8;
  std::vector<Tensor> off_logits, on_logits;
  {
    ObsStateGuard guard;
    obs::set_trace_sample_every(0);
    obs::set_profiling_enabled(false);
    serve::Server server(reg, cfg);
    for (int i = 0; i < kReqs; ++i) {
      off_logits.push_back(server.submit(sample_input(200 + i)).get().logits);
    }
  }
  {
    ObsStateGuard guard;
    obs::set_trace_sample_every(1);
    obs::set_profiling_enabled(true);
    obs::register_default_serve_slos();
    obs::start_sampler(10);  // continuous sampling + SLO eval in background
    serve::net::AdminEndpoint admin;  // live scraper on a kernel port
    serve::ServeConfig cfg_on = cfg;
    cfg_on.telemetry.sample_every = 1;
    cfg_on.telemetry.ewma_decay = 0.5f;
    serve::Server server(reg, cfg_on);
    for (int i = 0; i < kReqs; ++i) {
      on_logits.push_back(server.submit(sample_input(200 + i)).get().logits);
    }
    admin.stop();
    obs::stop_sampler();
  }
  for (int i = 0; i < kReqs; ++i) {
    const Tensor& a = off_logits[static_cast<std::size_t>(i)];
    const Tensor& b = on_logits[static_cast<std::size_t>(i)];
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "logits differ for request " << i;
  }
}

}  // namespace
}  // namespace ibrar
