#pragma once
// Duplicate-request reply cache: one LRU + in-flight dedup for serving.
//
// Millions of users send duplicate traffic; recomputing a forward for every
// copy of the same input is the one cost no kernel tuning removes. This cache
// keys replies on (input-bytes hash, model version) — nfs-ganesha's
// nfs_dupreq duplicate-request cache is the direct model, including its
// "being processed" state:
//
//   * A lookup that finds a COMPLETE entry returns the stored reply (a hit).
//     By contract the hit's logits are memcmp-identical to a recompute: the
//     stored reply IS a recompute's reply (same snapshot version, and the
//     serving path is bit-deterministic at any batch/worker count), so
//     returning it verbatim cannot differ by even one bit. Gated in
//     tests/test_reply_cache.cpp, over duplicate schedules too.
//   * A lookup that finds an IN-FLIGHT entry joins it: the caller's promise
//     is parked on the entry and the eventual leader reply fans out to every
//     joiner — N concurrent identical requests ride ONE compute.
//   * A lookup that finds nothing installs an in-flight entry and names the
//     caller leader; the leader proceeds through admission + queue + compute
//     and must call exactly one of complete() (fan + store) or abort() (fan
//     the failure, store nothing).
//
// Safety against hash collisions: every entry stores its exact input bytes
// and a candidate must memcmp-match them before it may hit or join; a
// colliding different input degrades to an uncached compute (Outcome::kBypass
// — never a wrong answer).
//
// Capacity is bounded in BYTES (inputs dominate), LRU-evicted from the cold
// end of the one recency list; in-flight entries are pinned (evicting one
// would strand its joiners).
// A model hot-swap invalidates: on_version() drops complete entries of other
// versions and dooms in-flight ones (they still fan out — their joiners were
// promised a reply — but are not stored).
//
// Observability (obs::registry(), no ad-hoc stat structs):
//   serve.cache.lookups / hits / misses / inflight_joins / evictions /
//   invalidations counters (a join counts as a hit too, so
//   hits + misses == lookups exactly — tools/check_serve_stats.py asserts
//   it), the serve.cache.bytes gauge tracking live bytes (falls on eviction,
//   invalidation, and clear — same freshness contract PR 7 established for
//   serve.queue_depth; 0 after shutdown), and serve.cache.budget_bytes.
//
// Thread safety: every public method is safe from any thread. One mutex
// guards the list, the index and the byte count; promise fan-out happens
// outside it. On a 4-vCPU host one lock carries over 100k lookups/s at any
// thread count, several times the heaviest measured stream (~20k submits/s
// from one connection's reader), so the cache is not sharded.

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/reply.hpp"
#include "tensor/tensor.hpp"

namespace ibrar::serve {

class ReplyCache {
 public:
  enum class Outcome {
    kBypass = 0,  ///< cache disabled or hash collision — serve uncached
    kHit,         ///< complete entry found; Lookup::reply is the answer
    kJoined,      ///< in-flight entry found; the promise was parked on it
    kLeader,      ///< entry installed; caller computes, then complete()/abort()
  };

  struct Lookup {
    Outcome outcome = Outcome::kBypass;
    Reply reply;  ///< valid only for kHit
  };

  /// `capacity_bytes` is the byte budget; 0 disables the cache entirely.
  explicit ReplyCache(std::size_t capacity_bytes);
  ~ReplyCache();
  ReplyCache(const ReplyCache&) = delete;
  ReplyCache& operator=(const ReplyCache&) = delete;

  bool enabled() const { return capacity_bytes_ > 0; }

  /// 64-bit hash of the shape dims and raw float bytes of the input.
  static std::uint64_t hash_input(const Tensor& input);

  /// One admission-time lookup. On kJoined, `joiner` has been consumed (moved
  /// into the entry); on every other outcome it is untouched. `version` must
  /// be the snapshot version the caller would compute under.
  Lookup lookup_or_join(std::uint64_t hash, const Tensor& input,
                        std::uint64_t version, std::promise<Reply>& joiner);

  /// Leader completion: fan `reply` to every joiner (as cached copies when it
  /// is ok, plain failure copies otherwise) and store it for future hits —
  /// unless the reply failed, the entry was doomed by an invalidation, or the
  /// version is no longer current. The leader keeps `reply` for its own
  /// promise. No-op if the entry is gone (clear() raced a shutdown).
  void complete(std::uint64_t hash, std::uint64_t version, const Reply& reply);

  /// Leader abort (admission denied, queue full/closed): fan the failure to
  /// every joiner and drop the entry. No-op if the entry is gone.
  void abort(std::uint64_t hash, std::uint64_t version, const Reply& reply);

  /// Note the currently published model version; when it changed, drop every
  /// complete entry of another version and doom in-flight ones (invalidation
  /// on hot-swap). Cheap when the version is unchanged (one atomic load).
  void on_version(std::uint64_t version);

  /// Drop everything. Stranded joiners (possible when a submit races server
  /// shutdown) are failed with kRejectedShutdown rather than broken promises.
  void clear();

  std::size_t bytes() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t entries() const;

 private:
  /// Fixed accounting overhead per entry (list/map nodes, bookkeeping).
  static constexpr std::size_t kEntryOverheadBytes = 128;

  struct Entry {
    std::uint64_t key = 0;      ///< mixed (hash, version) map key
    std::uint64_t version = 0;
    Shape shape;
    std::vector<float> input;   ///< exact bytes, memcmp'd before any hit/join
    bool complete = false;
    bool doomed = false;        ///< invalidated while in flight; never store
    Reply reply;                ///< normalized cached reply (complete only)
    std::vector<std::promise<Reply>> joiners;  ///< parked while in flight
    std::size_t bytes = 0;      ///< this entry's accounted footprint
  };
  using Lru = std::list<Entry>;

  static std::size_t entry_bytes(const Entry& e);
  /// Remove `it` from the list and the index and its bytes from the count;
  /// returns the next entry. mu_ must be held.
  Lru::iterator drop(Lru::iterator it);
  /// Evict the least recently used COMPLETE entries, walking in from the
  /// list's cold end, until bytes_ fits the budget. mu_ must be held.
  void evict_to_budget();
  void account(std::ptrdiff_t delta);

  const std::size_t capacity_bytes_;
  mutable std::mutex mu_;
  Lru lru_;  ///< front = hottest
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> latest_version_{0};

  obs::Counter& c_lookups_;
  obs::Counter& c_hits_;
  obs::Counter& c_misses_;
  obs::Counter& c_joins_;
  obs::Counter& c_evictions_;
  obs::Counter& c_invalidations_;
  obs::Gauge& g_bytes_;
  obs::Gauge& g_budget_;
};

}  // namespace ibrar::serve
