#include "serve/reply_cache.hpp"

#include <cstring>
#include <utility>

namespace ibrar::serve {
namespace {

/// A reply delivered from the cache (hit or join fan-out): the bit-identity
/// fields (logits, argmax, model_version) are the leader's verbatim; the
/// per-request bookkeeping is normalized — no queue was waited on and no
/// compute was spent on behalf of THIS request, and telemetry is a sampled
/// per-request observation that must not be replayed to other requests.
Reply cached_copy(const Reply& src) {
  Reply r = src;
  r.cached = true;
  r.queue_ns = 0;
  r.compute_ns = 0;
  r.batch_size = 0;
  r.trigger = BatchTrigger::kSize;
  r.retry_after_ms = 0;
  r.telemetry = RequestTelemetry{};
  return r;
}

/// A failed leader's status fanned to joiners: copy the failure, clear the
/// telemetry, and leave cached=false (nothing was served from the cache).
Reply failure_copy(const Reply& src) {
  Reply r = src;
  r.telemetry = RequestTelemetry{};
  return r;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ReplyCache::ReplyCache(ReplyCacheConfig cfg)
    : cfg_(cfg),
      c_lookups_(obs::registry().counter("serve.cache.lookups")),
      c_hits_(obs::registry().counter("serve.cache.hits")),
      c_misses_(obs::registry().counter("serve.cache.misses")),
      c_joins_(obs::registry().counter("serve.cache.inflight_joins")),
      c_evictions_(obs::registry().counter("serve.cache.evictions")),
      c_invalidations_(obs::registry().counter("serve.cache.invalidations")),
      g_bytes_(obs::registry().gauge("serve.cache.bytes")),
      g_budget_(obs::registry().gauge("serve.cache.budget_bytes")) {
  const std::size_t n =
      round_up_pow2(cfg_.shards == 0 ? std::size_t{1} : cfg_.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (enabled()) {
    g_budget_.set(static_cast<double>(cfg_.capacity_bytes));
  }
}

ReplyCache::~ReplyCache() { clear(); }

std::uint64_t ReplyCache::hash_input(const Tensor& input) {
  // FNV-1a 64 over the dims then the raw IEEE-754 bytes. The exact bytes are
  // re-checked on every candidate hit, so the hash only has to spread keys.
  std::uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t d = 0; d < input.shape().size(); ++d) {
    const std::int64_t dim = input.shape()[d];
    mix_bytes(&dim, sizeof dim);
  }
  mix_bytes(input.data().data(), sizeof(float) * input.data().size());
  return h;
}

std::uint64_t ReplyCache::mix_key(std::uint64_t hash, std::uint64_t version) {
  // splitmix64 finisher over (hash, version) so shard selection and map
  // bucketing both see well-spread bits.
  std::uint64_t z = hash ^ (version * 0x9E3779B97F4A7C15ull);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

ReplyCache::Shard& ReplyCache::shard_for(std::uint64_t key) {
  return *shards_[key & (shards_.size() - 1)];
}

std::size_t ReplyCache::entry_bytes(const Entry& e) {
  std::size_t b = kEntryOverheadBytes + sizeof(float) * e.input.size();
  if (e.complete) b += sizeof(float) * static_cast<std::size_t>(
                           e.reply.logits.rank() > 0 ? e.reply.logits.numel()
                                                     : 0);
  return b;
}

void ReplyCache::account(std::ptrdiff_t delta) {
  if (delta >= 0) {
    bytes_.fetch_add(static_cast<std::size_t>(delta),
                     std::memory_order_relaxed);
  } else {
    bytes_.fetch_sub(static_cast<std::size_t>(-delta),
                     std::memory_order_relaxed);
  }
  g_bytes_.add(static_cast<double>(delta));
}

ReplyCache::Lookup ReplyCache::lookup_or_join(std::uint64_t hash,
                                              const Tensor& input,
                                              std::uint64_t version,
                                              std::promise<Reply>& joiner) {
  Lookup out;
  if (!enabled()) return out;
  c_lookups_.inc();
  const std::uint64_t key = mix_key(hash, version);
  Shard& sh = shard_for(key);
  bool installed = false;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      Entry& e = *it->second;
      const bool same =
          e.version == version && e.shape == input.shape() &&
          e.input.size() == input.data().size() &&
          std::memcmp(e.input.data(), input.data().data(),
                      sizeof(float) * e.input.size()) == 0;
      if (!same) {
        // A different input collided onto the same key: serve it uncached.
        // kBypass can never be a wrong answer; it is only a missed saving.
        c_misses_.inc();
        return out;
      }
      if (e.complete) {
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        e.used = clock_++;
        out.outcome = Outcome::kHit;
        out.reply = e.reply;  // already normalized at store time
        c_hits_.inc();
        return out;
      }
      // In flight: park the promise; the leader's complete()/abort() fans
      // out. A join IS a hit for the hits+misses==lookups invariant — the
      // request is served without its own compute.
      e.joiners.push_back(std::move(joiner));
      out.outcome = Outcome::kJoined;
      c_hits_.inc();
      c_joins_.inc();
      return out;
    }
    // Miss: install the nfs_dupreq-style "being processed" entry and name
    // the caller leader.
    Entry e;
    e.key = key;
    e.version = version;
    e.shape = input.shape();
    e.input.assign(input.data().begin(), input.data().end());
    e.bytes = entry_bytes(e);
    e.used = clock_++;
    sh.lru.push_front(std::move(e));
    sh.index.emplace(key, sh.lru.begin());
    account(static_cast<std::ptrdiff_t>(sh.lru.front().bytes));
    installed = true;
  }
  c_misses_.inc();
  out.outcome = Outcome::kLeader;
  if (installed) evict_to_budget();
  return out;
}

void ReplyCache::complete(std::uint64_t hash, std::uint64_t version,
                          const Reply& reply) {
  if (!enabled()) return;
  const std::uint64_t key = mix_key(hash, version);
  Shard& sh = shard_for(key);
  std::vector<std::promise<Reply>> joiners;
  Reply stored;
  bool store = false;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it == sh.index.end()) return;  // cleared under us (shutdown race)
    Entry& e = *it->second;
    joiners = std::move(e.joiners);
    e.joiners.clear();
    store = reply.ok() && !e.doomed &&
            version == latest_version_.load(std::memory_order_relaxed);
    if (store) {
      const std::size_t before = e.bytes;
      e.complete = true;
      e.reply = cached_copy(reply);
      e.bytes = entry_bytes(e);
      account(static_cast<std::ptrdiff_t>(e.bytes) -
              static_cast<std::ptrdiff_t>(before));
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      e.used = clock_++;
      stored = e.reply;
    } else {
      account(-static_cast<std::ptrdiff_t>(e.bytes));
      sh.lru.erase(it->second);
      sh.index.erase(it);
    }
  }
  // Fan out OUTSIDE the shard lock: set_value wakes waiters synchronously.
  if (reply.ok()) {
    const Reply fan = store ? stored : cached_copy(reply);
    for (auto& p : joiners) p.set_value(fan);
  } else {
    for (auto& p : joiners) p.set_value(failure_copy(reply));
  }
  if (store) evict_to_budget();
}

void ReplyCache::abort(std::uint64_t hash, std::uint64_t version,
                       const Reply& reply) {
  if (!enabled()) return;
  const std::uint64_t key = mix_key(hash, version);
  Shard& sh = shard_for(key);
  std::vector<std::promise<Reply>> joiners;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it == sh.index.end()) return;
    Entry& e = *it->second;
    joiners = std::move(e.joiners);
    account(-static_cast<std::ptrdiff_t>(e.bytes));
    sh.lru.erase(it->second);
    sh.index.erase(it);
  }
  for (auto& p : joiners) p.set_value(failure_copy(reply));
}

void ReplyCache::on_version(std::uint64_t version) {
  if (!enabled()) return;
  if (latest_version_.load(std::memory_order_acquire) == version) return;
  latest_version_.store(version, std::memory_order_release);
  // Hot-swap invalidation: stale complete entries go now (their bytes fall
  // off the gauge immediately); stale in-flight entries are doomed — their
  // joiners were promised a reply, so they still fan out, but the result is
  // never stored.
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::lock_guard<std::mutex> lk(sh.mu);
    for (auto it = sh.lru.begin(); it != sh.lru.end();) {
      if (it->version == version) {
        ++it;
        continue;
      }
      if (it->complete) {
        account(-static_cast<std::ptrdiff_t>(it->bytes));
        sh.index.erase(it->key);
        it = sh.lru.erase(it);
        c_invalidations_.inc();
      } else {
        if (!it->doomed) {
          it->doomed = true;
          c_invalidations_.inc();
        }
        ++it;
      }
    }
  }
}

void ReplyCache::clear() {
  std::vector<std::promise<Reply>> stranded;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::lock_guard<std::mutex> lk(sh.mu);
    for (auto& e : sh.lru) {
      account(-static_cast<std::ptrdiff_t>(e.bytes));
      for (auto& p : e.joiners) stranded.push_back(std::move(p));
    }
    sh.lru.clear();
    sh.index.clear();
  }
  // A submit racing shutdown can leave joiners whose leader will abort into
  // an empty cache; failing them here keeps the no-broken-promise contract.
  Reply r;
  r.status = ReplyStatus::kRejectedShutdown;
  for (auto& p : stranded) p.set_value(r);
}

std::size_t ReplyCache::entries() const {
  std::size_t n = 0;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mu);
    n += shp->lru.size();
  }
  return n;
}

void ReplyCache::evict_to_budget() {
  // Evict the least recently used COMPLETE entry (in-flight ones are pinned
  // — evicting one would strand its joiners) until the byte budget holds or
  // nothing is evictable. Each shard's list is in clock order, so the oldest
  // of the shards' cold tails is the global LRU victim; taking one entry per
  // shard in turn would let a shard that drew more of the recent inserts
  // lose its newest entries.
  const auto coldest_complete = [](std::list<Entry>& lru) {  // end(): none
    for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
      if (it->complete) return std::prev(it.base());
    }
    return lru.end();
  };
  while (bytes_.load(std::memory_order_relaxed) > cfg_.capacity_bytes) {
    Shard* victim = nullptr;
    std::uint64_t oldest = 0;
    for (auto& shp : shards_) {
      std::lock_guard<std::mutex> lk(shp->mu);
      const auto it = coldest_complete(shp->lru);
      if (it != shp->lru.end() && (victim == nullptr || it->used < oldest)) {
        victim = shp.get();
        oldest = it->used;
      }
    }
    if (victim == nullptr) return;  // everything left is in flight
    std::lock_guard<std::mutex> lk(victim->mu);
    const auto it = coldest_complete(victim->lru);  // may differ from the scan
    if (it == victim->lru.end()) continue;
    account(-static_cast<std::ptrdiff_t>(it->bytes));
    victim->index.erase(it->key);
    victim->lru.erase(it);
    c_evictions_.inc();
  }
}

}  // namespace ibrar::serve
