#pragma once
// Pure parts of the benchmark: seeded schedules, nearest-rank percentiles
// and span self-times. Nothing here touches the library, the clock or the
// file system, so selftest.cpp can pin every function on fixed inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64. Its output is fixed by its definition, unlike the std::
/// distributions, so one seed names the same inputs with any standard
/// library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of the workload seed, so arrival times,
/// inputs, model weights and training data never share draws.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 g(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return g.next();
}

/// Due times, in seconds from the start of the phase, of `count` Poisson
/// arrivals at `rate_per_s`.
inline std::vector<double> poisson_arrivals(std::uint64_t seed,
                                            double rate_per_s,
                                            std::size_t count) {
  SplitMix64 g(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (auto& d : due) {
    t += -std::log1p(-g.uniform()) / rate_per_s;
    d = t;
  }
  return due;
}

/// Which input each request sends. A request repeats one of the `recent`
/// inputs introduced last with probability `dup_fraction`, otherwise it
/// sends a fresh one, so the number of duplicates is fixed before the run.
/// Repeating only recent inputs keeps every repeat inside a reply cache that
/// holds more than `recent` entries.
struct InputSchedule {
  std::vector<std::int64_t> input;  ///< request -> input index
  std::int64_t distinct = 0;        ///< inputs 0 .. distinct-1 are used

  std::int64_t duplicates() const {
    return static_cast<std::int64_t>(input.size()) - distinct;
  }
};

inline InputSchedule input_schedule(std::uint64_t seed, std::int64_t total,
                                    double dup_fraction,
                                    std::int64_t recent) {
  SplitMix64 g(seed);
  InputSchedule s;
  s.input.reserve(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < total; ++i) {
    const bool repeat = s.distinct > 0 && g.uniform() < dup_fraction;
    if (repeat) {
      const std::int64_t span = std::min(s.distinct, recent);
      s.input.push_back(s.distinct - 1 -
                        static_cast<std::int64_t>(
                            g.next() % static_cast<std::uint64_t>(span)));
    } else {
      s.input.push_back(s.distinct++);
    }
  }
  return s;
}

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

/// One recorded interval. `parent` indexes the span that caused it in the
/// same log (-1 for a root); `id` ties together the spans of one request.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

/// Largest gap, over the given logs, between the sum of all span self times
/// and the wall time of the log's root spans, as a share of that wall time.
/// Zero when every nanosecond is attributed exactly once.
inline double selftime_gap(const std::vector<const std::vector<Span>*>& logs) {
  double worst = 0.0;
  for (const auto* spans : logs) {
    const auto self = self_times(*spans);
    std::int64_t sum_self = 0, wall = 0;
    for (std::size_t i = 0; i < spans->size(); ++i) {
      sum_self += self[i];
      if ((*spans)[i].parent < 0) {
        wall += (*spans)[i].end_ns - (*spans)[i].start_ns;
      }
    }
    if (wall > 0) {
      worst = std::max(worst, std::abs(static_cast<double>(sum_self - wall)) /
                                  static_cast<double>(wall));
    }
  }
  return worst;
}

}  // namespace perfbench
