#pragma once
// The suites' wall-clock floors share one guard: a floor only holds in an
// optimized build without sanitizers (NDEBUG says nothing here, because the
// project overrides CMAKE_CXX_FLAGS_RELEASE). In any other build a timing
// test reports what it measured and skips.
//
//   SKIP_UNLESS_TIMING_BUILD() << ns << " ns per scope";

#include <gtest/gtest.h>

#include <algorithm>

#include "util/stopwatch.hpp"

namespace ibrar {

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_UNDEFINED__)
inline constexpr bool kTimingBuild = true;
#else
inline constexpr bool kTimingBuild = false;
#endif

/// Best-of-`reps` wall time of fn(), in nanoseconds.
template <typename F>
double best_wall_ns(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds() * 1e9);
  }
  return best;
}

}  // namespace ibrar

#define SKIP_UNLESS_TIMING_BUILD()                                     \
  if (::ibrar::kTimingBuild) {                                         \
  } else                                                               \
    GTEST_SKIP() << "timing floor is checked only in optimized builds " \
                    "without sanitizers; measured "
