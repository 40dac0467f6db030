// Continuous-telemetry tier: time-series ring exactness (including rate
// across the overwrite boundary), the sampler tick's < 1% budget of its
// 250 ms cadence, SLO burn-rate state transitions + episode
// monotonicity, registry retire/compact cardinality bounds, drift-detector
// control bands, the EWMA-vs-tumbling (decay 0.5 vs 0) telemetry A/B
// (scripted clean -> PGD shift must flip drift within <= 3 windows;
// all-clean never does), and the read-only HTTP admin endpoint.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "mi/channel_score.hpp"
#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/admin.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "tensor/random.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

constexpr std::int64_t kSec = 1'000'000'000;

// ---- time-series store ------------------------------------------------------

TEST(TimeSeries, RingKeepsNewestAndCountsDrops) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 4;
  obs::TimeSeriesStore store(cfg);
  for (int i = 0; i < 10; ++i) {
    store.append("r", i * kSec, static_cast<double>(i * 10));
  }
  // 10 appended into a 4-deep ring: the 6 oldest were overwritten, counted.
  EXPECT_EQ(store.dropped_samples(), 6u);
  const auto s = store.series("r");
  ASSERT_EQ(s.size(), 4u);
  // Oldest-first and exactly the newest four.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s[static_cast<std::size_t>(i)].t_ns, (6 + i) * kSec);
    EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(i)].value, (6 + i) * 10.0);
  }
  EXPECT_DOUBLE_EQ(store.last("r"), 90.0);
  EXPECT_TRUE(store.series("unknown").empty());
}

TEST(TimeSeries, RateIsExactAcrossOverwriteBoundary) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 4;
  obs::TimeSeriesStore store(cfg);
  // A counter climbing 10/s; the ring wraps (only t=6..9 survive).
  for (int i = 0; i < 10; ++i) {
    store.append("c", i * kSec, static_cast<double>(i * 10));
  }
  // A window wider than retained history: the base falls back to the oldest
  // SURVIVING sample, so the delta stays exact over the span actually used.
  EXPECT_DOUBLE_EQ(store.rate("c", 100 * kSec), 10.0);
  // A window inside the ring picks the right base sample (t=7).
  EXPECT_DOUBLE_EQ(store.rate("c", 2 * kSec), 10.0);
  // Fewer than two samples in any window -> 0.
  obs::TimeSeriesStore fresh(cfg);
  fresh.append("c", 0, 5.0);
  EXPECT_DOUBLE_EQ(fresh.rate("c", 100 * kSec), 0.0);
  EXPECT_DOUBLE_EQ(fresh.rate("unknown", kSec), 0.0);
}

TEST(TimeSeries, SampleNowDerivesSeriesFromEveryMetricKind) {
  obs::MetricsRegistry reg;
  reg.counter("t.c").inc(5);
  reg.gauge("t.g").set(2.5);
  for (int i = 1; i <= 100; ++i) {
    reg.histogram("t.h").observe(static_cast<double>(i));
  }
  obs::TimeSeriesStore store;
  store.sample_now(reg, 1 * kSec);
  reg.counter("t.c").inc(3);
  store.sample_now(reg, 2 * kSec);

  const auto c = store.series("t.c");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0].value, 5.0);
  EXPECT_DOUBLE_EQ(c[1].value, 8.0);
  EXPECT_DOUBLE_EQ(store.rate("t.c", 10 * kSec), 3.0);  // +3 over 1s
  EXPECT_DOUBLE_EQ(store.last("t.g"), 2.5);
  EXPECT_DOUBLE_EQ(store.last("t.h.count"), 100.0);
  EXPECT_DOUBLE_EQ(store.last("t.h.mean"), 50.5);
  // Percentile track brackets the true order statistic from above.
  const auto p99 = store.percentile_series("t.h", 0.99);
  ASSERT_EQ(p99.size(), 2u);
  EXPECT_GE(p99.back().value, 99.0);
  EXPECT_LE(p99.back().value, 99.0 * 1.1251);
  EXPECT_EQ(store.ticks(), 2u);
  const auto names = store.series_names();
  EXPECT_EQ(names.size(), store.series_count());
}

TEST(TimeSeries, SamplerTickCostsUnderOnePercentOfItsCadence) {
  // A serving-sized registry (48 counters, 48 gauges, 8 histograms: 128
  // series) sampled by explicit ticks. One tick's cost over the default
  // 250 ms interval is the sampler's share of a core; it must stay < 1%.
  obs::MetricsRegistry reg;
  for (int i = 0; i < 48; ++i) {
    reg.counter("t.ts.c" + std::to_string(i)).inc(7);
    reg.gauge("t.ts.g" + std::to_string(i)).set(static_cast<double>(i));
  }
  for (int i = 0; i < 8; ++i) {
    auto& h = reg.histogram("t.ts.h" + std::to_string(i));
    for (int j = 1; j <= 512; ++j) h.observe(static_cast<double>(j));
  }
  obs::TimeSeriesStore store;  // default 512-sample rings
  constexpr std::int64_t kTicks = 500;
  const double tick_ns = best_wall_ns(5, [&] {
                           for (std::int64_t i = 0; i < kTicks; ++i) {
                             store.sample_now(reg, i);
                           }
                         }) /
                         static_cast<double>(kTicks);
  EXPECT_EQ(store.series_count(), 128u);
  const double overhead = tick_ns / (250.0 * 1e6);
  SKIP_UNLESS_TIMING_BUILD() << overhead * 100.0 << "% of the cadence ("
                             << tick_ns << " ns per tick)";
  EXPECT_LT(overhead, 0.01) << tick_ns << " ns per tick";
}

// ---- SLO state machine ------------------------------------------------------

TEST(Slo, BurnRateStatesEscalateMonotonicallyThenRecover) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 128;
  obs::TimeSeriesStore store(cfg);

  obs::SloSpec spec;
  spec.name = "test_reject";
  spec.kind = obs::SloSpec::Kind::kRatio;
  spec.bad_series = {"bad"};
  spec.good_series = "good";
  spec.objective = 0.1;  // 10% bad-event budget
  spec.fast_window_ns = 5 * kSec;
  spec.slow_window_ns = 15 * kSec;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  obs::SloMonitor mon(spec);

  double bad = 0.0, good = 0.0;
  std::vector<obs::SloState> states;
  int tick = 0;
  auto run = [&](int n, double bad_per_s, double good_per_s) {
    for (int i = 0; i < n; ++i, ++tick) {
      bad += bad_per_s;
      good += good_per_s;
      store.append("bad", tick * kSec, bad);
      store.append("good", tick * kSec, good);
      states.push_back(mon.evaluate(store, tick * kSec));
    }
  };
  run(10, 0.0, 100.0);   // clean: ratio 0
  run(12, 15.0, 85.0);   // 15% sustained: slow burn 1.5 -> warning
  run(8, 50.0, 50.0);    // 50%: fast burn 5 >= 2, slow >= 1 -> breach
  run(30, 0.0, 100.0);   // recovery: windows drain back to ok

  // All three states were visited, in escalation order.
  auto first = [&](obs::SloState s) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i] == s) return static_cast<int>(i);
    }
    return -1;
  };
  const int w = first(obs::SloState::kWarning);
  const int b = first(obs::SloState::kBreach);
  ASSERT_GE(w, 10);
  ASSERT_GT(b, w);
  EXPECT_EQ(states.front(), obs::SloState::kOk);
  EXPECT_EQ(states.back(), obs::SloState::kOk);
  // Episode monotonicity: the state never de-escalates breach -> warning;
  // the only way down is a clean evaluation straight to ok.
  for (std::size_t i = 1; i < states.size(); ++i) {
    if (static_cast<int>(states[i]) < static_cast<int>(states[i - 1])) {
      EXPECT_EQ(states[i], obs::SloState::kOk)
          << "de-escalated to non-ok at tick " << i;
    }
  }
  const auto st = mon.status();
  EXPECT_EQ(st.name, "test_reject");
  EXPECT_GE(st.transitions, 3u);  // ok->warning->breach->ok at minimum
}

TEST(Slo, ValueBelowUsesWindowedMeanOfSeries) {
  obs::TimeSeriesStore store;
  obs::SloSpec spec;
  spec.name = "test_latency";
  spec.kind = obs::SloSpec::Kind::kValueBelow;
  spec.bad_series = {"lat.p99"};
  spec.objective = 100.0;
  spec.fast_window_ns = 5 * kSec;
  spec.slow_window_ns = 10 * kSec;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  obs::SloMonitor mon(spec);

  for (int i = 0; i < 12; ++i) store.append("lat.p99", i * kSec, 50.0);
  EXPECT_EQ(mon.evaluate(store, 11 * kSec), obs::SloState::kOk);
  for (int i = 12; i < 30; ++i) store.append("lat.p99", i * kSec, 400.0);
  EXPECT_EQ(mon.evaluate(store, 29 * kSec), obs::SloState::kBreach);
  const auto st = mon.status();
  EXPECT_GE(st.fast_burn_rate, 2.0);
  // The state gauge mirrors the machine.
  const auto snap = obs::registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs.slo.test_latency.state"), 2.0);
}

TEST(Slo, RegistryIsIdempotentAndRendersJson) {
  obs::register_default_serve_slos();
  const std::size_t n = obs::slos().size();
  obs::register_default_serve_slos();  // second call adds nothing
  EXPECT_EQ(obs::slos().size(), n);
  EXPECT_GE(n, 3u);
  const std::string json = obs::slos().to_json();
  EXPECT_NE(json.find("\"slos\":["), std::string::npos);
  EXPECT_NE(json.find("serve_compute_p99"), std::string::npos);
  EXPECT_NE(json.find("\"state\":"), std::string::npos);
}

// ---- registry retire/compact ------------------------------------------------

TEST(MetricsRetire, ThousandSwapLoopKeepsRegistryBounded) {
  obs::MetricsRegistry reg;
  for (int v = 1; v <= 1000; ++v) {
    const std::string prefix = "serve.version." + std::to_string(v) + ".";
    reg.counter(prefix + "requests").inc(2);
    reg.counter(prefix + "compute_ns").inc(10);
    if (v > 1) {
      const std::string old =
          "serve.version." + std::to_string(v - 1) + ".";
      EXPECT_EQ(reg.retire_counters(old, "serve.version.retired."), 2u);
    }
  }
  reg.retire_counters("serve.version.1000.", "serve.version.retired.");
  // Live cardinality after 1000 generations: just the two aggregates.
  EXPECT_LE(reg.size(), 4u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("serve.version.retired.requests"), 2000u);
  EXPECT_EQ(snap.counters.at("serve.version.retired.compute_ns"), 10000u);
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("serve.version.", 0) == 0) {
      EXPECT_EQ(name.rfind("serve.version.retired.", 0), 0u)
          << "unretired family survived: " << name;
    }
  }
}

TEST(MetricsRetire, StaleHandleStaysValidAndFoldGuardThrows) {
  obs::MetricsRegistry reg;
  obs::Counter& stale = reg.counter("fam.a.requests");
  stale.inc(7);
  EXPECT_EQ(reg.retire_counters("fam.a.", "fam.retired."), 1u);
  stale.inc(100);  // parked storage: no UAF; increment is simply dropped
  EXPECT_EQ(reg.snapshot().counters.at("fam.retired.requests"), 7u);
  // fold_prefix inside the retire range would re-fold its own output.
  EXPECT_THROW(reg.retire_counters("fam.", "fam.x."), std::invalid_argument);
  EXPECT_EQ(reg.retire_counters("", "x."), 0u);
}

// ---- drift detector ---------------------------------------------------------

TEST(Drift, ControlBandsFlipOnShiftAndClearOnReturn) {
  serve::DriftDetector d;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.observe(0.10 + 0.001 * (i % 3)), serve::DriftDetector::kStable);
  }
  EXPECT_NEAR(d.mean(), 0.10, 0.01);
  EXPECT_EQ(d.observe(0.90), serve::DriftDetector::kDrift);
  EXPECT_EQ(d.state(), serve::DriftDetector::kDrift);
  // A persistent shift stays flagged: the baseline does not learn it.
  EXPECT_EQ(d.observe(0.90), serve::DriftDetector::kDrift);
  EXPECT_NEAR(d.mean(), 0.10, 0.01);
  // Traffic returns in-band -> state clears.
  EXPECT_EQ(d.observe(0.10), serve::DriftDetector::kStable);
}

// ---- EWMA vs tumbling telemetry A/B -----------------------------------------

// Synthetic last-conv tap rows with a known channel structure:
//  * channels 0..7 carry the label (high HSIC -> robust set),
//  * channels 8..15 are near-silent noise (low HSIC -> suspicious set).
// Clean rows put their energy in the label-carrying channels; "PGD-shifted"
// rows dump it into the suspicious ones — exactly the signature the paper's
// Eq. (3) monitor is built to notice.
constexpr std::int64_t kChans = 16;
constexpr std::int64_t kSpatial = 4;

std::vector<float> clean_row(int i) {
  std::vector<float> row(static_cast<std::size_t>(kChans * kSpatial));
  const int y = i % 2;
  for (std::int64_t c = 0; c < kChans; ++c) {
    float v;
    if (c < 8) {
      v = (c % 2 == y) ? 1.0f : 0.1f;
    } else {
      v = 0.05f + 0.001f * static_cast<float>((i + c) % 3);
    }
    for (std::int64_t s = 0; s < kSpatial; ++s) {
      row[static_cast<std::size_t>(c * kSpatial + s)] = v;
    }
  }
  return row;
}

std::vector<float> adv_row(int i) {
  std::vector<float> row(static_cast<std::size_t>(kChans * kSpatial));
  for (std::int64_t c = 0; c < kChans; ++c) {
    const float v = c < 8 ? 0.1f : 1.0f + 0.001f * static_cast<float>(i % 3);
    for (std::int64_t s = 0; s < kSpatial; ++s) {
      row[static_cast<std::size_t>(c * kSpatial + s)] = v;
    }
  }
  return row;
}

/// Feed `windows` scoring windows of clean or adversarial rows; returns the
/// number of windows fed before drift flipped (or -1 if it never did).
int feed_windows(serve::RobustnessMonitor& mon, int windows, bool adv,
                 int* counter) {
  const std::int64_t w = mon.config().window;
  int flipped_at = -1;
  for (int win = 0; win < windows; ++win) {
    for (std::int64_t s = 0; s < w; ++s) {
      const int i = (*counter)++;
      const auto row = adv ? adv_row(i) : clean_row(i);
      mon.observe(row.data(), kChans, kSpatial, i % 2, 2);
    }
    if (flipped_at < 0 &&
        mon.drift_state() == serve::DriftDetector::kDrift) {
      flipped_at = win + 1;
    }
  }
  return flipped_at;
}

TEST(TelemetryDrift, CleanToPgdShiftFlipsWithinThreeWindowsCleanNever) {
  serve::TelemetryConfig base;
  base.sample_every = 1;
  base.window = 8;

  for (const float decay : {0.5f, 0.0f}) {
    serve::TelemetryConfig cfg = base;
    cfg.ewma_decay = decay;
    // A/B arm 1: scripted clean -> PGD-like shift.
    serve::RobustnessMonitor shifted(cfg);
    int idx = 0;
    ASSERT_EQ(feed_windows(shifted, 8, /*adv=*/false, &idx), -1)
        << "clean warmup must not trip drift (decay=" << decay << ")";
    const int flipped = feed_windows(shifted, 3, /*adv=*/true, &idx);
    EXPECT_GE(flipped, 1) << "shift never flipped drift (decay=" << decay
                          << ")";
    EXPECT_LE(flipped, 3) << "drift too slow (decay=" << decay << ")";
    // (No assertion on the FINAL state: once the monitor re-scores on the
    // shifted traffic its suspicion normalizes against the new mask, and the
    // detector may legitimately clear — the alert is the transition.)

    // A/B arm 2: all-clean control traffic never flips.
    serve::RobustnessMonitor control(cfg);
    int cidx = 0;
    EXPECT_EQ(feed_windows(control, 16, /*adv=*/false, &cidx), -1)
        << "all-clean traffic flipped drift (decay=" << decay << ")";
    EXPECT_EQ(control.drift_state(), serve::DriftDetector::kStable);
  }
}

TEST(TelemetryDrift, EwmaBlendsScoresTumblingReplacesThem) {
  serve::TelemetryConfig cfg;
  cfg.sample_every = 1;
  cfg.window = 8;
  cfg.ewma_decay = 0.5f;
  serve::RobustnessMonitor ewma(cfg);
  cfg.ewma_decay = 0.0f;
  serve::RobustnessMonitor tumbling(cfg);

  // Identical script through both monitors: clean epochs, then a shift.
  int ia = 0, ib = 0;
  feed_windows(ewma, 4, false, &ia);
  feed_windows(tumbling, 4, false, &ib);
  feed_windows(ewma, 2, true, &ia);
  feed_windows(tumbling, 2, true, &ib);

  const auto sa = ewma.channel_scores();
  const auto sb = tumbling.channel_scores();
  ASSERT_EQ(sa.size(), static_cast<std::size_t>(kChans));
  ASSERT_EQ(sb.size(), sa.size());
  // Tumbling forgot the clean epochs entirely; EWMA carries half of each
  // previous epoch, so the score vectors must have diverged.
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(sa[i] - sb[i]));
  }
  EXPECT_GT(max_diff, 1e-6f);
  EXPECT_EQ(ewma.score_epoch(), tumbling.score_epoch());
}

TEST(TelemetryDrift, DecayZeroScoresAreExactlyEachWindowsOwn) {
  // Tumbling is the blend at decay 0, the default: after every completed
  // window the monitor's scores must be memcmp-equal to scoring that window
  // alone, even though each epoch runs through the blend with the previous
  // epoch's scores.
  serve::TelemetryConfig cfg;
  cfg.sample_every = 1;
  cfg.window = 8;
  EXPECT_EQ(cfg.ewma_decay, 0.0f);
  serve::RobustnessMonitor mon(cfg);
  int idx = 0;
  for (int win = 0; win < 6; ++win) {
    const bool adv = win >= 3;  // clean epochs, then a shift
    Tensor feats({cfg.window, kChans, kSpatial, 1});
    std::vector<std::int64_t> preds;
    for (std::int64_t s = 0; s < cfg.window; ++s, ++idx) {
      const auto row = adv ? adv_row(idx) : clean_row(idx);
      std::copy(row.begin(), row.end(),
                feats.data().begin() + s * kChans * kSpatial);
      preds.push_back(idx % 2);
      mon.observe(row.data(), kChans, kSpatial, idx % 2, 2);
    }
    const auto want = mi::channel_label_scores(feats, preds, 2);
    const auto got = mon.channel_scores();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
              0)
        << "epoch " << win + 1;
    EXPECT_EQ(mon.score_epoch(), static_cast<std::uint64_t>(win + 1));
  }
}

// ---- server integration: hot-swap retires the old version family -----------

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

TEST(ServerRetire, HotSwapFoldsOldVersionCountersIntoRetired) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.deadline_us = 0;
  cfg.queue_capacity = 16;
  serve::Server server(reg, cfg);
  for (int i = 0; i < 3; ++i) server.submit(sample_input(i)).get();
  reg.publish(tiny_model(2), {kChannels, kSize, kSize});
  for (int i = 0; i < 2; ++i) server.submit(sample_input(10 + i)).get();
  server.shutdown();

  const auto snap = obs::registry().snapshot();
  // v1's family was folded into the retired aggregates by the first batch
  // that saw v2; v2's family is live.
  EXPECT_EQ(snap.counters.count("serve.version.1.requests"), 0u);
  EXPECT_GE(snap.counters.at("serve.version.retired.requests"), 3u);
  EXPECT_GE(snap.counters.at("serve.version.2.requests"), 2u);
}

// ---- admin endpoint ---------------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Admin, ServesMetricsSloAndTimeseriesReadOnly) {
  obs::registry().counter("admin.test.counter").inc(3);
  obs::timeseries().sample_now(obs::registry());
  obs::register_default_serve_slos();
  obs::slos().evaluate(obs::timeseries());

  serve::net::AdminEndpoint admin;  // port 0 -> kernel-assigned
  ASSERT_GT(admin.port(), 0);

  const std::string metrics = http_get(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  // Names are sanitized into the Prometheus charset.
  EXPECT_NE(metrics.find("\nadmin_test_counter 3"), std::string::npos)
      << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("# TYPE admin_test_counter counter"),
            std::string::npos);

  const std::string slo = http_get(admin.port(), "/slo");
  EXPECT_NE(slo.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(slo.find("\"slos\":["), std::string::npos);
  EXPECT_NE(slo.find("serve_reject_rate"), std::string::npos);

  const std::string listing = http_get(admin.port(), "/timeseries");
  EXPECT_NE(listing.find("\"series\":["), std::string::npos);
  const std::string ts =
      http_get(admin.port(), "/timeseries?name=admin.test.counter");
  EXPECT_NE(ts.find("\"name\":\"admin.test.counter\""), std::string::npos);
  EXPECT_NE(ts.find("\"samples\":[{"), std::string::npos);

  EXPECT_NE(http_get(admin.port(), "/bogus").find("HTTP/1.0 404"),
            std::string::npos);
  // Read-only contract: non-GET methods are refused at the door.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(admin.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string req = "POST /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string out;
    char buf[512];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(out.find("HTTP/1.0 405"), std::string::npos);
  }
  admin.stop();
  admin.stop();  // idempotent
}

TEST(Admin, ScraperThatHangsUpDoesNotKillTheProcess) {
  // 200,000 counters make a /metrics body of about 8 MB, far past the socket
  // buffers, so the endpoint is still writing when a scraper that closed
  // right after its request resets the connection. That must end one write,
  // not the process (SIGPIPE), and the next scrape must be served. The
  // child process keeps the large registry, and on a regression the signal,
  // away from the other tests.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        for (int i = 0; i < 200000; ++i) {
          obs::registry().counter("admin.hangup." + std::to_string(i)).inc();
        }
        serve::net::AdminEndpoint admin;
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(admin.port());
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
          std::exit(2);
        }
        const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
        if (::write(fd, req.data(), req.size()) !=
            static_cast<ssize_t>(req.size())) {
          std::exit(3);
        }
        ::close(fd);
        const std::string again = http_get(admin.port(), "/metrics");
        admin.stop();
        std::exit(again.rfind("HTTP/1.0 200", 0) == 0 ? 0 : 4);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Admin, IdleClientDoesNotStallScrapesOrStop) {
  // A client that connects and sends nothing must not hold the one accept
  // thread: the endpoint drops it after its socket timeout, serves the next
  // scrape, and stop() returns. Every wait here is bounded and the idle
  // socket is closed on the way out, so a regression fails, not hangs.
  using std::chrono::seconds;
  serve::net::AdminEndpoint admin;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(admin.port());
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  const auto t0 = std::chrono::steady_clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const timeval limit{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::write(fd, req.data(), req.size()) ==
        static_cast<ssize_t>(req.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof buf)) > 0) {
        reply.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u)
      << "no reply to a scrape behind an idle client";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, seconds(10));

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    admin.stop();
    stopped.set_value();
  });
  const bool in_time = done.wait_for(seconds(10)) == std::future_status::ready;
  ::close(idle);
  stopper.join();
  EXPECT_TRUE(in_time) << "stop() waited for the idle client to close";
}

TEST(Admin, RenderHandlesUnknownSeriesGracefully) {
  const std::string resp =
      serve::net::render_admin_response("/timeseries?name=no.such.series");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(resp.find("\"samples\":[]"), std::string::npos);
}

}  // namespace
}  // namespace ibrar
