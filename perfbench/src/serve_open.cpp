// serve-vgg16-open: vgg16 behind the TCP front end, configured as
// ibrar_serve configures it, on one pipelined connection. The run alternates
// rounds of two windows: (a) open-loop Poisson arrivals at a fixed 1000
// req/s, then (b) a closed loop that keeps 32 requests in flight to measure
// capacity. Alternating spreads both over the whole run, so a slow stretch
// of the host lands in a few windows of each rather than in one phase.
// Every input is distinct, so the reply cache only pays lookups, inserts
// and, once its 32 MiB fill, evictions.

#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "models/registry.hpp"
#include "serve_common.hpp"

namespace perfbench {

using namespace ibrar;

namespace {

constexpr double kOfferedRps = 1000.0;
constexpr std::int64_t kOpenPerRound = 500;  ///< half a second at kOfferedRps
constexpr std::int64_t kInFlight = 32;
/// About a tenth of a second at the measured capacity (5-10k req/s).
constexpr std::int64_t kClosedPerRound = 600;
constexpr std::int64_t kPerRound = kOpenPerRound + kClosedPerRound;
constexpr double kRoundSeconds = 0.65;
constexpr std::int64_t kWarmup = 128;
constexpr int kSetups = 5;

serve::ServeConfig open_config() {
  serve::ServeConfig cfg = serve::ServeConfig::from_env();
  cfg.telemetry.sample_every = 4;  // ibrar_serve's --telemetry default
  cfg.telemetry.window = 32;
  return cfg;
}

/// Untimed closed-loop requests over inputs no measured request sends, so
/// first-touch faults, pool spin-up and the first scoring window are paid
/// before timing.
void warm_up(ServeStack& st, const std::vector<Tensor>& inputs,
             std::int64_t first) {
  serve::net::Client c("127.0.0.1", st.frontend->port(), /*client_id=*/1);
  for (std::int64_t i = 0; i < kWarmup; ++i) {
    (void)c.submit(inputs[static_cast<std::size_t>(first + i)]);
  }
}

/// Request `id` is the id-th send on the connection, which is also the
/// correlation id the client assigns; it sends input `id`. Round r holds
/// requests [r*kPerRound, (r+1)*kPerRound): open-loop ones first.
struct Pass {
  std::vector<Sent> sent;
  std::vector<double> round_rate;  ///< closed-loop replies/s per round
  double user_s = 0.0;             ///< process user CPU time over the pass
  double steal_frac = 0.0;         ///< host steal share over the pass
  std::uint64_t evictions = 0;
  std::uint64_t cache_hits = 0;
  ResourceTrail trail;
  std::string error;

  /// The open-loop requests of every round.
  std::vector<Sent> open() const {
    std::vector<Sent> out;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (static_cast<std::int64_t>(i) % kPerRound < kOpenPerRound) {
        out.push_back(sent[i]);
      }
    }
    return out;
  }
};

void record(std::vector<Sent>& sent, serve::net::ReplyFrame&& f,
            std::int64_t t) {
  const auto id = static_cast<std::int64_t>(f.id);
  if (id < 0 || id >= static_cast<std::int64_t>(sent.size())) return;
  auto& s = sent[static_cast<std::size_t>(id)];
  ++s.replies;
  s.recv_ns = t;
  s.frame = std::move(f);
}

void send(serve::net::Client& client, const std::vector<Tensor>& inputs,
          Sent& s, std::int64_t id, SpanLog* log) {
  s.input = id;
  s.send_ns = now_ns();
  Scope sp(log, "net.send", static_cast<std::uint64_t>(id));
  client.send(inputs[static_cast<std::size_t>(id)]);
}

/// Window (a): the calling thread paces sends at their due times while a
/// receiver thread drains the replies.
void open_window(serve::net::Client& client, const std::vector<Tensor>& inputs,
                 const std::vector<double>& due_s, std::int64_t first,
                 std::vector<Sent>& sent, Tracer& tracer, SpanLog* log) {
  Scope phase(log, "phase.open");
  std::string recv_error;
  std::thread receiver([&] {
    SpanLog* rlog = tracer.thread_log("receiver");
    Scope root(rlog, "loadgen.receiver");
    try {
      for (std::int64_t i = 0; i < kOpenPerRound; ++i) {
        serve::net::ReplyFrame f;
        {
          Scope s(rlog, "net.recv");
          f = client.recv();
        }
        record(sent, std::move(f), now_ns());
      }
    } catch (const std::exception& e) {
      recv_error = e.what();
    }
  });
  const std::int64_t start = now_ns() + 1'000'000;
  try {
    for (std::int64_t i = 0; i < kOpenPerRound; ++i) {
      auto& s = sent[static_cast<std::size_t>(first + i)];
      s.due_ns = start + static_cast<std::int64_t>(
                             due_s[static_cast<std::size_t>(i)] * 1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(s.due_ns)));
      send(client, inputs, s, first + i, log);
    }
  } catch (...) {
    receiver.join();
    throw;
  }
  receiver.join();
  if (!recv_error.empty()) throw std::runtime_error(recv_error);
}

/// Window (b): kInFlight requests outstanding; returns replies per second
/// from the first send to the last reply.
double closed_window(serve::net::Client& client,
                     const std::vector<Tensor>& inputs, std::int64_t first,
                     std::vector<Sent>& sent, SpanLog* log) {
  Scope phase(log, "phase.closed");
  std::int64_t next = 0;
  const auto send_next = [&] {
    auto& s = sent[static_cast<std::size_t>(first + next)];
    send(client, inputs, s, first + next, log);
    s.due_ns = s.send_ns;
    ++next;
  };
  while (next < kInFlight) send_next();
  std::int64_t last_recv = 0;
  for (std::int64_t got = 0; got < kClosedPerRound; ++got) {
    serve::net::ReplyFrame f;
    {
      Scope s(log, "net.recv");
      f = client.recv();
    }
    last_recv = now_ns();
    record(sent, std::move(f), last_recv);
    if (next < kClosedPerRound) send_next();
  }
  const std::int64_t span =
      last_recv - sent[static_cast<std::size_t>(first)].send_ns;
  return span > 0 ? static_cast<double>(kClosedPerRound) / sec(span) : 0.0;
}

Pass run_pass(ServeStack& st, const std::vector<Tensor>& inputs,
              std::uint64_t seed, std::int64_t rounds, Tracer& tracer) {
  Pass p;
  p.sent.resize(static_cast<std::size_t>(rounds * kPerRound));
  SpanLog* log = tracer.thread_log("main");
  const auto stats0 = st.server->stats();
  p.trail.before = read_proc();
  const CpuMeter meter;
  try {
    Scope root(log, "workload");
    std::unique_ptr<serve::net::Client> client;
    {
      Scope s(log, "net.connect");
      client = std::make_unique<serve::net::Client>(
          "127.0.0.1", st.frontend->port(), /*client_id=*/2);
    }
    for (std::int64_t r = 0; r < rounds; ++r) {
      const auto due = poisson_arrivals(derive_seed(seed, 100 + r),
                                        kOfferedRps, kOpenPerRound);
      open_window(*client, inputs, due, r * kPerRound, p.sent, tracer, log);
      p.round_rate.push_back(closed_window(
          *client, inputs, r * kPerRound + kOpenPerRound, p.sent, log));
    }
    Scope s(log, "net.close");
    client.reset();
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  p.user_s = meter.user_s();
  p.steal_frac = meter.steal_frac();
  p.trail.after = read_proc();
  const auto stats1 = st.server->stats();
  p.evictions = stats1.cache_evictions - stats0.cache_evictions;
  p.cache_hits = stats1.cache_hits - stats0.cache_hits;
  return p;
}

}  // namespace

Result run_serve_vgg16_open(const RunArgs& args, Tracer& tracer) {
  Result r;
  const std::int64_t rounds =
      std::max<std::int64_t>(2, std::llround(args.seconds / kRoundSeconds));
  const std::int64_t n_measured = rounds * kPerRound;
  Shape chw;
  const auto inputs =
      make_inputs(args.seed, n_measured + kSetups * kWarmup, &chw);
  const std::uint64_t model_seed = derive_seed(args.seed, 31);
  const ModelFactory make_vgg = [&] {
    models::ModelSpec spec;
    spec.name = "vgg16";
    spec.num_classes = 10;
    spec.image_size = chw[1];
    spec.in_channels = chw[0];
    Rng rng(model_seed);
    return models::make_model(spec, rng);
  };
  const auto cfg = open_config();

  // Set-up, timed kSetups times: model pair build, publish with prepack,
  // server and front end start, warm-up. Each warm-up uses its own inputs.
  SetupTimes setups;
  std::unique_ptr<ServeStack> st;
  for (int k = 0; k < kSetups; ++k) {
    st.reset();
    setups.time([&] {
      st = build_stack(make_vgg, chw, cfg);
      warm_up(*st, inputs, n_measured + k * kWarmup);
    });
  }

  std::vector<Pass> passes;
  if (args.trace) {
    // Untraced pass first on this stack, then a traced pass on a fresh one,
    // so neither sees the other's cache entries.
    Tracer off(false);
    passes.push_back(run_pass(*st, inputs, args.seed, rounds, off));
    st = build_stack(make_vgg, chw, cfg);
    warm_up(*st, inputs, n_measured);
  }
  passes.push_back(run_pass(*st, inputs, args.seed, rounds, tracer));
  Pass& p = passes.back();
  if (tracer.enabled()) {
    SpanLog* log = tracer.thread_log("probes");
    probe_layers(*st->registry.current(), inputs, cfg.telemetry, log, r);
  }
  st->stop();
  p.trail.stopped = read_proc();

  const ReferenceLogits ref(*st->ref_registry.current(), inputs);
  for (const auto& pass : passes) {
    if (!pass.error.empty()) r.fail("load generator: " + pass.error);
    const Verdict v = verify(pass.sent, ref);
    r.attempted += static_cast<std::int64_t>(pass.sent.size());
    r.failed += v.bad();
    if (v.bad() > 0) {
      r.fail("replies: " + std::to_string(v.refused) + " refused, " +
             std::to_string(v.failed) + " lost or duplicated, " +
             std::to_string(v.wrong) + " differ from the reference");
    }
    // Every input is distinct, so the schedule has no duplicates to hit.
    if (pass.cache_hits != 0) {
      r.fail("cache hits on distinct inputs: " +
             std::to_string(pass.cache_hits));
    }
  }

  const auto user_cpu_ms_per_item = [](const Pass& pass) {
    return pass.user_s * 1e3 / static_cast<double>(pass.sent.size());
  };
  const auto lat_open = latencies_ms(p.open());
  const double capacity = percentile(p.round_rate, 0.5);
  r.end_to_end = {
      {"setup_s", percentile(setups.cpu_s, 0.5), "s"},
      {"peak_rss_mb", p.trail.after.hwm_mb, "MB"},
      {"user_cpu_ms_per_item", user_cpu_ms_per_item(p), "ms"},
  };
  const auto late = lateness_ms(p.open());
  r.info = {
      {"setup_wall_s", percentile(setups.wall_s, 0.5), "s"},
      {"host.steal_frac", p.steal_frac, "fraction"},
      {"lat_p50_ms", percentile(lat_open, 0.5), "ms"},
      {"lat_p99_ms", percentile(lat_open, 0.99), "ms"},
      {"capacity_rps", capacity, "1/s"},
      {"fail_frac",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted),
       "fraction"},
      {"offered_rps", kOfferedRps, "1/s"},
      {"rounds", static_cast<double>(p.round_rate.size()), "count"},
      {"requests", static_cast<double>(p.sent.size()), "count"},
      {"loadgen.late_p50_ms", percentile(late, 0.5), "ms"},
      {"loadgen.late_p99_ms", percentile(late, 0.99), "ms"},
      {"serve.cache.evictions", static_cast<double>(p.evictions), "count"},
  };
  add_resource_info("net", p.trail, r);
  if (!args.trace) return r;

  // Per-layer metrics from the traced pass. Reply-frame layers cover both
  // windows; the generator's lateness exists only in the open loop.
  add_reply_layers(p.sent, p.open(), r);
  add_span_layers(tracer, r);
  r.per_layer.push_back(
      {"net.open_fds_delta",
       static_cast<double>(p.trail.after.fds - p.trail.before.fds), "count"});
  r.per_layer.push_back(
      {"serve.cache.evictions", static_cast<double>(p.evictions), "count"});
  const Pass& untraced = passes.front();
  r.per_layer.push_back(
      {"trace.overhead.cpu_frac",
       overhead_frac(user_cpu_ms_per_item(untraced), user_cpu_ms_per_item(p),
                     false),
       "fraction"});
  r.per_layer.push_back(
      {"trace.overhead.lat_p50_frac",
       overhead_frac(percentile(latencies_ms(untraced.open()), 0.5),
                     percentile(lat_open, 0.5), false),
       "fraction"});
  return r;
}

}  // namespace perfbench
