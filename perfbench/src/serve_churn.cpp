// serve-mlp-churn: the mlp256 dense model behind the TCP front end with
// telemetry off. Client threads run closed loops of short sessions (connect,
// 8 blocking submits, close) and a quarter of the requests repeat a recent
// input, so connections churn and the reply cache takes its hit and join
// paths.
//
// The run is a sequence of server lifetimes of kSessionsPerLifetime
// sessions each. Every session leaves one fd open until the front end
// stops, so a lifetime stays far below the default 1024-fd limit; each
// lifetime also starts with an empty reply cache, which its inputs never
// fill, so every repeat is a hit.

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <thread>

#include "models/mlp.hpp"
#include "serve_common.hpp"

namespace perfbench {

using namespace ibrar;

namespace {

constexpr std::int64_t kMaxClients = 4;
constexpr std::int64_t kPerSession = 8;
constexpr double kDupFraction = 0.25;
/// Repeats draw from this many most recent inputs of their lifetime.
constexpr std::int64_t kRecent = 512;
/// Sessions per measured second, about the measured rate (~1.6k req/s).
constexpr double kSessionsPerSecond = 200.0;
constexpr std::int64_t kSessionsPerLifetime = 200;
constexpr std::int64_t kWarmupSessions = 8;
constexpr int kSetups = 5;

std::int64_t client_threads() {
  const auto hw =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  return std::clamp<std::int64_t>(hw, 1, kMaxClients);
}

void warm_up(ServeStack& st, const std::vector<Tensor>& inputs,
             std::int64_t first) {
  for (std::int64_t s = 0; s < kWarmupSessions; ++s) {
    serve::net::Client c("127.0.0.1", st.frontend->port(), /*client_id=*/1);
    for (std::int64_t i = 0; i < kPerSession; ++i) {
      (void)c.submit(
          inputs[static_cast<std::size_t>(first + s * kPerSession + i)]);
    }
  }
}

/// Which input each request sends, lifetime after lifetime. Each lifetime
/// has its own seeded schedule over inputs no other lifetime uses, so its
/// duplicate count, the cache hits it must produce, is known in advance.
struct Plan {
  std::vector<std::int64_t> input;       ///< request -> input index
  std::vector<std::int64_t> first;       ///< first session of each lifetime
  std::vector<std::int64_t> duplicates;  ///< per lifetime
  std::int64_t inputs = 0;               ///< distinct inputs in all
};

Plan make_plan(std::uint64_t seed, std::int64_t sessions) {
  Plan plan;
  for (std::int64_t s = 0; s < sessions; s += kSessionsPerLifetime) {
    const std::int64_t n =
        (std::min(sessions, s + kSessionsPerLifetime) - s) * kPerSession;
    const auto life = input_schedule(
        derive_seed(seed, 200 + static_cast<std::uint64_t>(plan.first.size())),
        n, kDupFraction, kRecent);
    for (const auto in : life.input) plan.input.push_back(plan.inputs + in);
    plan.inputs += life.distinct;
    plan.first.push_back(s);
    plan.duplicates.push_back(life.duplicates());
  }
  plan.first.push_back(sessions);
  return plan;
}

/// One server lifetime as measured: its requests are the contiguous range
/// [first_request, first_request + requests) of Pass::sent.
struct Lifetime {
  std::int64_t first_request = 0;
  std::int64_t requests = 0;
  double seconds = 0.0;  ///< traffic time, server start and stop excluded
  double user_s = 0.0;   ///< process user CPU time over the traffic
  std::uint64_t cache_hits = 0;
  std::uint64_t evictions = 0;
  ResourceTrail trail;
};

struct Pass {
  std::vector<Sent> sent;
  std::vector<Lifetime> lifetimes;
  std::vector<std::string> errors;
  double steal_frac = 0.0;  ///< host steal share over the pass

  double user_cpu_ms_per_item() const {
    double user = 0.0;
    for (const auto& l : lifetimes) user += l.user_s;
    return user * 1e3 / static_cast<double>(sent.size());
  }
  double throughput() const {
    double seconds = 0.0;
    for (const auto& l : lifetimes) seconds += l.seconds;
    return static_cast<double>(sent.size()) / seconds;
  }
};

/// Sessions s = 0, 1, ... carry requests s*8 .. s*8+7 of the plan; client
/// thread c runs the sessions of a lifetime with s % clients == c.
Pass run_pass(ServeStack& st, const std::vector<Tensor>& inputs,
              const Plan& plan, Tracer& tracer) {
  Pass p;
  p.sent.resize(plan.input.size());
  const std::int64_t clients = client_threads();
  SpanLog* main_log = tracer.thread_log("main");
  Scope root(main_log, "workload");
  const CpuMeter pass_meter;
  for (std::size_t w = 0; w + 1 < plan.first.size(); ++w) {
    const std::int64_t first = plan.first[w], last = plan.first[w + 1];
    st.start();
    Lifetime life;
    life.first_request = first * kPerSession;
    life.requests = (last - first) * kPerSession;
    life.trail.before = read_proc();
    std::vector<std::string> errors(static_cast<std::size_t>(clients));
    const CpuMeter meter;
    const std::int64_t t0 = now_ns();
    {
      Scope round(main_log, "lifetime");
      std::vector<std::thread> threads;
      for (std::int64_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          SpanLog* log = tracer.thread_log("client");
          Scope root_c(log, "loadgen.client");
          try {
            for (std::int64_t s = first + c; s < last; s += clients) {
              std::unique_ptr<serve::net::Client> client;
              {
                Scope sp(log, "net.connect");
                client = std::make_unique<serve::net::Client>(
                    "127.0.0.1", st.frontend->port(),
                    static_cast<std::uint64_t>(10 + c));
              }
              for (std::int64_t k = 0; k < kPerSession; ++k) {
                const std::int64_t req = s * kPerSession + k;
                auto& e = p.sent[static_cast<std::size_t>(req)];
                e.input = plan.input[static_cast<std::size_t>(req)];
                e.send_ns = e.due_ns = now_ns();
                {
                  Scope sp(log, "net.submit", static_cast<std::uint64_t>(req));
                  e.frame = client->submit(
                      inputs[static_cast<std::size_t>(e.input)]);
                }
                e.recv_ns = now_ns();
                e.replies = 1;
              }
              Scope sp(log, "net.close");
              client.reset();
            }
          } catch (const std::exception& ex) {
            errors[static_cast<std::size_t>(c)] = ex.what();
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    life.seconds = sec(now_ns() - t0);
    life.user_s = meter.user_s();
    life.trail.after = read_proc();
    const auto stats = st.server->stats();
    life.cache_hits = stats.cache_hits;
    life.evictions = stats.cache_evictions;
    st.stop();
    life.trail.stopped = read_proc();
    p.lifetimes.push_back(life);
    for (auto& e : errors) {
      if (!e.empty()) p.errors.push_back(std::move(e));
    }
  }
  p.steal_frac = pass_meter.steal_frac();
  return p;
}

}  // namespace

Result run_serve_mlp_churn(const RunArgs& args, Tracer& tracer) {
  Result r;
  const auto sessions = std::max<std::int64_t>(
      1, std::llround(kSessionsPerSecond * args.seconds));
  const Plan plan = make_plan(derive_seed(args.seed, 22), sessions);
  const std::int64_t warm_inputs = kSetups * kWarmupSessions * kPerSession;
  Shape chw;
  const auto inputs = make_inputs(args.seed, plan.inputs + warm_inputs, &chw);
  const std::uint64_t model_seed = derive_seed(args.seed, 32);
  const ModelFactory make_mlp = [&]() -> models::TapClassifierPtr {
    models::MLPConfig mcfg;
    mcfg.in_features = chw[0] * chw[1] * chw[2];
    mcfg.hidden = {256, 256};
    mcfg.num_classes = 10;
    Rng rng(model_seed);
    return std::make_shared<models::MLP>(mcfg, rng);
  };
  serve::ServeConfig cfg = serve::ServeConfig::from_env();
  cfg.telemetry.sample_every = 0;

  // Set-up, timed kSetups times: model pair build, publish, server and
  // front end start, warm-up sessions on inputs of their own.
  SetupTimes setups;
  std::unique_ptr<ServeStack> st;
  for (int k = 0; k < kSetups; ++k) {
    st.reset();
    setups.time([&] {
      st = build_stack(make_mlp, chw, cfg);
      warm_up(*st, inputs, plan.inputs + k * kWarmupSessions * kPerSession);
    });
  }
  st->stop();  // every lifetime starts a server of its own

  std::vector<Pass> passes;
  if (args.trace) {
    Tracer off(false);
    passes.push_back(run_pass(*st, inputs, plan, off));
  }
  passes.push_back(run_pass(*st, inputs, plan, tracer));
  const Pass& p = passes.back();
  const double hwm = read_proc().hwm_mb;
  if (tracer.enabled()) {
    SpanLog* log = tracer.thread_log("probes");
    probe_layers(*st->registry.current(), inputs, cfg.telemetry, log, r);
  }

  const ReferenceLogits ref(*st->ref_registry.current(), inputs);
  std::uint64_t evictions = 0;
  for (const auto& pass : passes) {
    for (const auto& e : pass.errors) r.fail("load generator: " + e);
    const Verdict v = verify(pass.sent, ref);
    r.attempted += static_cast<std::int64_t>(pass.sent.size());
    r.failed += v.bad();
    if (v.bad() > 0) {
      r.fail("replies: " + std::to_string(v.refused) + " refused, " +
             std::to_string(v.failed) + " lost or duplicated, " +
             std::to_string(v.wrong) + " differ from the reference");
    }
    // The cache computes each distinct input of a lifetime once; every
    // repeat is a hit or joins the in-flight leader, however the client
    // threads interleave.
    for (std::size_t w = 0; w < pass.lifetimes.size(); ++w) {
      const auto& life = pass.lifetimes[w];
      std::int64_t cached = 0;
      for (std::int64_t i = 0; i < life.requests; ++i) {
        const auto k = static_cast<std::size_t>(life.first_request + i);
        cached += pass.sent[k].frame.cached ? 1 : 0;
      }
      const std::int64_t want = plan.duplicates[w];
      if (cached != want ||
          life.cache_hits != static_cast<std::uint64_t>(want)) {
        r.fail("lifetime " + std::to_string(w) + ": cache hits " +
               std::to_string(life.cache_hits) + " (" +
               std::to_string(cached) + " cached replies), schedule has " +
               std::to_string(want) + " duplicates");
      }
      evictions += life.evictions;
    }
  }

  const auto lat = latencies_ms(p.sent);
  std::int64_t fds_delta = 0, duplicates = 0;
  for (const auto& l : p.lifetimes) {
    fds_delta = std::max(fds_delta, l.trail.after.fds - l.trail.before.fds);
  }
  for (const auto d : plan.duplicates) duplicates += d;
  r.end_to_end = {
      {"setup_s", percentile(setups.cpu_s, 0.5), "s"},
      {"peak_rss_mb", hwm, "MB"},
      {"user_cpu_ms_per_item", p.user_cpu_ms_per_item(), "ms"},
  };
  r.info = {
      {"setup_wall_s", percentile(setups.wall_s, 0.5), "s"},
      {"host.steal_frac", p.steal_frac, "fraction"},
      {"lat_p50_ms", percentile(lat, 0.5), "ms"},
      {"lat_p99_ms", percentile(lat, 0.99), "ms"},
      {"throughput_rps", p.throughput(), "1/s"},
      {"fail_frac",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted),
       "fraction"},
      {"client_threads", static_cast<double>(client_threads()), "count"},
      {"sessions", static_cast<double>(sessions), "count"},
      {"requests", static_cast<double>(p.sent.size()), "count"},
      {"duplicates", static_cast<double>(duplicates), "count"},
      {"lifetimes", static_cast<double>(p.lifetimes.size()), "count"},
  };
  add_resource_info("net.last_lifetime", p.lifetimes.back().trail, r);
  if (!args.trace) return r;

  add_reply_layers(p.sent, {}, r);
  add_span_layers(tracer, r);
  r.per_layer.push_back(
      {"net.open_fds_delta", static_cast<double>(fds_delta), "count"});
  r.per_layer.push_back(
      {"serve.cache.evictions", static_cast<double>(evictions), "count"});
  const Pass& untraced = passes.front();
  r.per_layer.push_back(
      {"trace.overhead.cpu_frac",
       overhead_frac(untraced.user_cpu_ms_per_item(), p.user_cpu_ms_per_item(),
                     false),
       "fraction"});
  r.per_layer.push_back(
      {"trace.overhead.lat_p50_frac",
       overhead_frac(percentile(latencies_ms(untraced.sent), 0.5),
                     percentile(lat, 0.5), false),
       "fraction"});
  return r;
}

}  // namespace perfbench
