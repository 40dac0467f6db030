#pragma once
// Opt-in per-kernel profiling hooks: where did the nanoseconds go?
//
// A ProfileScope at a kernel's entry accumulates {calls, total ns} into a
// string-named ProfileSite when profiling is on (IBRAR_OBS_PROFILE=1, or
// set_profiling_enabled(true)). The contract that lets the hooks live in the
// hottest kernels permanently:
//
//  * Disabled (the default), a scope is one predictable branch on a cached
//    atomic flag — no clock read, no store. Profile.DisabledScopeCostsUnder100Ns
//    (tests/test_obs.cpp) gates it under 100 ns per scope in optimized
//    builds; it measures a few ns, unmeasurable at kernel granularity.
//  * Enabled, the cost is two clock reads plus two relaxed fetch_adds on the
//    thread's shard of the site.
//  * Observation never changes computation: the hooks touch no kernel data,
//    so outputs are bit-identical with profiling on or off
//    (tests/test_obs.cpp memcmps logits to enforce it).
//
// Sites are process-global and keyed by name; instrumented kernels resolve
// theirs once through a function-local static:
//
//   static obs::ProfileSite& site = obs::profile_site("tensor/gemm_packed");
//   obs::ProfileScope prof(site);
//
// profile_table() returns the aggregated per-kernel time table;
// print_profile_table() renders it (benches and ibrar_serve call it at exit
// when profiling is on).

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"  // kMetricShards + detail::shard_slot

namespace ibrar::obs {

/// Cached IBRAR_OBS_PROFILE (read once); overridable below.
bool profiling_enabled();
void set_profiling_enabled(bool on);

/// Sharded accumulator for one instrumented kernel.
struct ProfileSite {
  explicit ProfileSite(std::string name_) : name(std::move(name_)) {}
  const std::string name;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };
  std::array<Shard, kMetricShards> shards{};

  void add(std::int64_t elapsed_ns) {
    auto& s = shards[static_cast<std::size_t>(detail::shard_slot())];
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
};

/// Find-or-create the site for `name`; the reference is stable for the
/// process lifetime.
ProfileSite& profile_site(const char* name);

/// RAII timer attributing the enclosed scope to `site` when profiling is on.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileSite& site)
      : site_(profiling_enabled() ? &site : nullptr),
        t0_(site_ != nullptr ? now_ns() : 0) {}
  ~ProfileScope() {
    if (site_ != nullptr) site_->add(now_ns() - t0_);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileSite* site_;
  std::int64_t t0_;
};

struct ProfileEntry {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  double mean_ns() const {
    return calls > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(calls)
                     : 0.0;
  }
};

/// Aggregated table over all sites with at least one call, total_ns
/// descending.
std::vector<ProfileEntry> profile_table();

/// Zero every site's accumulators (between benchmark phases / tests).
void reset_profile();

/// Render profile_table() as an aligned text table ("(empty)" line when
/// nothing was recorded).
void print_profile_table(std::FILE* out);

/// profile_table() as one JSON object:
/// {"sites":[{"name":...,"calls":N,"total_ns":N,"mean_ns":X},...]} — the
/// machine-readable sibling of print_profile_table(), written by
/// `ibrar_serve --profile-out` and uploaded next to BENCH artifacts in CI.
std::string profile_to_json();

/// Write profile_to_json() to `path`; throws std::runtime_error on I/O
/// failure.
void dump_profile(const std::string& path);

}  // namespace ibrar::obs
