#pragma once
// Run harness shared by the workloads: the clock, per-thread span logs, the
// result of one run, and resource readings from /proc.

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "pure.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Spans recorded by one thread, in the order they were opened.
struct SpanLog {
  std::string thread;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

/// Owns every thread's span log. Spans stay in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh log for the calling thread, or nullptr when tracing is off. The
  /// thread keeps the pointer; only that thread writes to the log.
  SpanLog* thread_log(const std::string& thread) {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(SpanLog{thread, {}, {}});
    return &logs_.back();
  }

  /// Durations in ms of every span named `name`. This and the two below
  /// read the logs, so call them once every recording thread has joined.
  std::vector<double> span_ms(const std::string& name) const;

  /// selftime_gap over every log.
  double selftime_gap() const;

  /// chrome://tracing JSON; the parent index and request id ride in "args".
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mu_;  // guards logs_ growth
  std::deque<SpanLog> logs_;
};

/// Records one span around a call into a layer; a no-op without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t id = 0) : log_(log) {
    if (log_ == nullptr) return;
    idx_ = static_cast<std::int64_t>(log_->spans.size());
    const std::int64_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->spans.push_back(Span{name, now_ns(), 0, parent, id});
    log_->open.push_back(idx_);
  }
  ~Scope() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(idx_)].end_ns = now_ns();
    log_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int64_t idx_ = -1;
};

/// The self-time check passes when Tracer::selftime_gap stays within this
/// share of the traced wall time.
inline constexpr double kSelfTimeTolerance = 1e-3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `per_layer` feed the
/// result line; `info` lines are printed for people and not parsed.
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> gate_failures;

  void fail(const std::string& why) { gate_failures.push_back(why); }
};

/// Process resources, read from outside the program under test.
struct ProcReading {
  std::int64_t fds = 0;
  std::int64_t threads = 0;
  double hwm_mb = 0.0;  ///< VmHWM
};

ProcReading read_proc();

/// The process's CPU time (user + system, from getrusage) and the share
/// of the machine's CPU time the host stole (from /proc/stat) since
/// construction. On a shared VM the host deschedules vCPUs for other
/// tenants; CPU time leaves that out, wall time does not.
class CpuMeter {
 public:
  CpuMeter();
  double cpu_s() const;
  double user_s() const;
  double steal_frac() const;

 private:
  double cpu0_, user0_;
  double steal0_, total0_;
};

/// CPU and wall seconds of each timed set-up.
struct SetupTimes {
  std::vector<double> cpu_s, wall_s;

  template <class F>
  void time(F&& setup) {
    const CpuMeter meter;
    const std::int64_t t0 = now_ns();
    setup();
    wall_s.push_back(sec(now_ns() - t0));
    cpu_s.push_back(meter.cpu_s());
  }
};

/// A library profile site's total time in ms, or its call count, divided by
/// `per` (the units of work it covered); 0 when the site never ran.
double site_ms(const std::vector<ibrar::obs::ProfileEntry>& table,
               const char* name, double per);
double site_calls(const std::vector<ibrar::obs::ProfileEntry>& table,
                  const char* name, double per);

/// Options every workload takes from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Relative change of a traced figure against its untraced twin, the
/// tracing overhead. Positive when tracing made the figure worse.
inline double overhead_frac(double untraced, double traced,
                            bool higher_is_better) {
  if (untraced == 0.0) return 0.0;
  const double change = traced / untraced - 1.0;
  return higher_is_better ? -change : change;
}

Result run_serve_vgg16_open(const RunArgs& args, Tracer& tracer);
Result run_serve_mlp_churn(const RunArgs& args, Tracer& tracer);
Result run_train_ibrar_pgdat(const RunArgs& args, Tracer& tracer);

/// Pure-part self-tests; returns the number of failed checks.
int run_selftests();

}  // namespace perfbench
