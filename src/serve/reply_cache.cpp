#include "serve/reply_cache.hpp"

#include <algorithm>
#include <bit>
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

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

/// splitmix64's finisher: every input bit reaches every output bit.
std::uint64_t splitmix(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

/// The map key of (input hash, model version), well spread for bucketing.
std::uint64_t mix_key(std::uint64_t hash, std::uint64_t version) {
  return splitmix(hash ^ (version * kGolden));
}

}  // namespace

ReplyCache::ReplyCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      c_lookups_(obs::registry().counter("serve.cache.lookups")),
      c_hits_(obs::registry().counter("serve.cache.hits")),
      c_misses_(obs::registry().counter("serve.cache.misses")),
      c_joins_(obs::registry().counter("serve.cache.inflight_joins")),
      c_evictions_(obs::registry().counter("serve.cache.evictions")),
      c_invalidations_(obs::registry().counter("serve.cache.invalidations")),
      g_bytes_(obs::registry().gauge("serve.cache.bytes")),
      g_budget_(obs::registry().gauge("serve.cache.budget_bytes")) {
  if (enabled()) {
    g_budget_.set(static_cast<double>(capacity_bytes_));
  }
}

ReplyCache::~ReplyCache() { clear(); }

std::uint64_t ReplyCache::hash_input(const Tensor& input) {
  // Four independent xor-rotate-multiply lanes over 8-byte words, so the
  // multiplies overlap instead of chaining once per byte; the rotate feeds
  // each word's high bits back into the low ones. The dims go into lane 0
  // first; a last odd float is zero-extended, which cannot alias a longer
  // input because the dims differ. The lanes fold through the splitmix
  // finisher. The exact bytes are re-checked on every candidate hit, so
  // the hash only has to spread keys.
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    return std::rotl(h ^ w, 29) * kGolden;
  };
  std::uint64_t lanes[4] = {1, 2, 3, 4};
  for (const std::int64_t dim : input.shape()) {
    lanes[0] = step(lanes[0], static_cast<std::uint64_t>(dim));
  }
  const auto* p = reinterpret_cast<const unsigned char*>(input.data().data());
  const std::size_t n = sizeof(float) * input.data().size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * l, 8);
      lanes[l] = step(lanes[l], w);
    }
  }
  for (std::size_t l = 0; i < n; i += 8, ++l) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, std::min<std::size_t>(8, n - i));
    lanes[l] = step(lanes[l], w);
  }
  std::uint64_t h = 0;
  for (const std::uint64_t lane : lanes) h = splitmix(h ^ lane);
  return h;
}

std::size_t ReplyCache::entry_bytes(const Entry& e) {
  std::size_t b = kEntryOverheadBytes + sizeof(float) * e.input.size();
  if (e.complete) b += sizeof(float) * static_cast<std::size_t>(
                           e.reply.logits.rank() > 0 ? e.reply.logits.numel()
                                                     : 0);
  return b;
}

void ReplyCache::account(std::ptrdiff_t delta) {
  bytes_ += static_cast<std::size_t>(delta);  // wraps: a negative subtracts
  g_bytes_.add(static_cast<double>(delta));
}

ReplyCache::Lru::iterator ReplyCache::drop(Lru::iterator it) {
  account(-static_cast<std::ptrdiff_t>(it->bytes));
  index_.erase(it->key);
  return lru_.erase(it);
}

std::size_t ReplyCache::bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_;
}

std::size_t ReplyCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

ReplyCache::Lookup ReplyCache::lookup_or_join(std::uint64_t hash,
                                              const Tensor& input,
                                              std::uint64_t version,
                                              std::promise<Reply>& joiner) {
  Lookup out;
  if (!enabled()) return out;
  c_lookups_.inc();
  const std::uint64_t key = mix_key(hash, version);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
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
      lru_.splice(lru_.begin(), lru_, it->second);
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
  lru_.push_front(std::move(e));
  index_.emplace(key, lru_.begin());
  account(static_cast<std::ptrdiff_t>(lru_.front().bytes));
  c_misses_.inc();
  out.outcome = Outcome::kLeader;
  evict_to_budget();
  return out;
}

void ReplyCache::complete(std::uint64_t hash, std::uint64_t version,
                          const Reply& reply) {
  if (!enabled()) return;
  const std::uint64_t key = mix_key(hash, version);
  std::vector<std::promise<Reply>> joiners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return;  // cleared under us (shutdown race)
    Entry& e = *it->second;
    joiners = std::move(e.joiners);
    e.joiners.clear();
    const bool store =
        reply.ok() && !e.doomed &&
        version == latest_version_.load(std::memory_order_relaxed);
    if (store) {
      const std::size_t before = e.bytes;
      e.complete = true;
      e.reply = cached_copy(reply);
      e.bytes = entry_bytes(e);
      account(static_cast<std::ptrdiff_t>(e.bytes) -
              static_cast<std::ptrdiff_t>(before));
      lru_.splice(lru_.begin(), lru_, it->second);
      evict_to_budget();  // may take e itself when it alone overflows
    } else {
      drop(it->second);
    }
  }
  // Fan out OUTSIDE the lock: set_value wakes waiters synchronously.
  if (reply.ok()) {
    const Reply fan = cached_copy(reply);
    for (auto& p : joiners) p.set_value(fan);
  } else {
    for (auto& p : joiners) p.set_value(failure_copy(reply));
  }
}

void ReplyCache::abort(std::uint64_t hash, std::uint64_t version,
                       const Reply& reply) {
  if (!enabled()) return;
  const std::uint64_t key = mix_key(hash, version);
  std::vector<std::promise<Reply>> joiners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return;
    joiners = std::move(it->second->joiners);
    drop(it->second);
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
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->version == version) {
      ++it;
      continue;
    }
    if (it->complete) {
      it = drop(it);
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

void ReplyCache::clear() {
  std::vector<std::promise<Reply>> stranded;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& e : lru_) {
      account(-static_cast<std::ptrdiff_t>(e.bytes));
      for (auto& p : e.joiners) stranded.push_back(std::move(p));
    }
    lru_.clear();
    index_.clear();
  }
  // A submit racing shutdown can leave joiners whose leader will abort into
  // an empty cache; failing them here keeps the no-broken-promise contract.
  Reply r;
  r.status = ReplyStatus::kRejectedShutdown;
  for (auto& p : stranded) p.set_value(r);
}

void ReplyCache::evict_to_budget() {
  // The list is in recency order, so the first COMPLETE entry from the cold
  // end is the least recently used one. In-flight entries are pinned —
  // evicting one would strand its joiners — so the walk steps past them and
  // stops when the budget holds or it reaches the front.
  auto it = lru_.end();
  while (bytes_ > capacity_bytes_ && it != lru_.begin()) {
    --it;
    if (!it->complete) continue;
    it = drop(it);
    c_evictions_.inc();
  }
}

}  // namespace ibrar::serve
