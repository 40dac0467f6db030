// Self-tests of the benchmark's pure parts, run at the start of every run.

#include <cstdio>
#include <set>

#include "harness.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

void test_schedules() {
  const auto a = poisson_arrivals(7, 1000.0, 5000);
  const auto b = poisson_arrivals(7, 1000.0, 5000);
  const auto c = poisson_arrivals(8, 1000.0, 5000);
  check(a == b, "same seed, same arrival times");
  check(a != c, "another seed, other arrival times");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  check(increasing, "arrival times increase");
  // 5000 arrivals at 1000/s end near 5 s; the bound is many sigmas wide.
  check(a.back() > 4.5 && a.back() < 5.5, "arrival rate");

  const auto s1 = input_schedule(7, 4000, 0.25, 512);
  const auto s2 = input_schedule(7, 4000, 0.25, 512);
  check(s1.input == s2.input && s1.distinct == s2.distinct,
        "same seed, same input schedule");
  check(input_schedule(8, 4000, 0.25, 512).input != s1.input,
        "another seed, other input schedule");
  // Replay the schedule against an unbounded cache: every repeat is a hit,
  // so the hit count is the duplicate count known before the run, and every
  // repeat names one of the `recent` inputs introduced last.
  std::set<std::int64_t> seen;
  std::int64_t hits = 0;
  bool recent_only = true;
  std::int64_t introduced = 0;
  for (const auto in : s1.input) {
    if (seen.count(in) > 0) {
      ++hits;
      recent_only &= in >= introduced - 512;
    } else {
      check(in == introduced, "fresh inputs are numbered in order");
      seen.insert(in);
      ++introduced;
    }
  }
  check(hits == s1.duplicates(), "duplicate count equals cache hits");
  check(introduced == s1.distinct, "distinct count");
  check(recent_only, "repeats stay within the recent window");
  check(s1.duplicates() > 800 && s1.duplicates() < 1200,
        "duplicate share near 25%");
}

void test_percentile() {
  // Nearest rank: the ceil(q*n)-th smallest sample.
  const std::vector<double> v = {50, 15, 40, 20, 35};
  check(percentile(v, 0.05) == 15, "nearest-rank p5");
  check(percentile(v, 0.30) == 20, "nearest-rank p30");
  check(percentile(v, 0.40) == 20, "nearest-rank p40");
  check(percentile(v, 0.50) == 35, "nearest-rank p50");
  check(percentile(v, 1.00) == 50, "nearest-rank p100");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(percentile(hundred, 0.5) == 50, "p50 of 1..100");
  check(percentile(hundred, 0.99) == 99, "p99 of 1..100");
  check(percentile({}, 0.5) == 0, "empty sample");
}

void test_self_times() {
  // root [0,100] has children a [10,40] and b [30,60], which overlap; a has
  // child c [20,30]; b has child d [50,70], which runs past b and is
  // clipped to [50,60].
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"b", 30, 60, 0, 0},
      {"c", 20, 30, 1, 0},     {"d", 50, 70, 2, 0},
  };
  const auto self = self_times(spans);
  check(self[0] == 50, "root self time: 100 - union of [10,40] and [30,60]");
  check(self[1] == 20, "a self time");
  check(self[2] == 20, "b self time with a clipped child");
  check(self[3] == 10 && self[4] == 20, "leaf self times");
  // Overlapping siblings attribute time twice, which the gap check reports.
  check(selftime_gap({&spans}) > 0.0, "overlap shows as a self-time gap");

  const std::vector<Span> nested = {
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"b", 40, 60, 0, 0},
      {"c", 20, 30, 1, 0},     {"root2", 200, 250, -1, 0},
  };
  check(selftime_gap({&nested}) == 0.0, "nested spans tile the wall time");
}

}  // namespace

int run_selftests() {
  g_failures = 0;
  test_schedules();
  test_percentile();
  test_self_times();
  return g_failures;
}

}  // namespace perfbench
