#include "src/util/score_cache.h"

#include <limits>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::util {

ScoreCache::ScoreCache(size_t cap, int stripes) {
  NEO_CHECK(cap >= 1);
  NEO_CHECK(cap < std::numeric_limits<uint32_t>::max());
  if (cap < kWays) {
    // One set of `cap` ways: small caches stay exact LRUs of `cap` entries.
    ways_ = cap;
    num_sets_ = 1;
  } else {
    ways_ = kWays;
    num_sets_ = 1;
    while (num_sets_ * 2 * kWays <= cap) num_sets_ *= 2;
  }
  num_stripes_ = 1;
  while (static_cast<int64_t>(num_stripes_) < stripes) num_stripes_ *= 2;
  if (num_stripes_ > num_sets_) num_stripes_ = num_sets_;
  while ((num_stripes_ << stripe_shift_) < num_sets_) ++stripe_shift_;
  stripes_ = std::make_unique<Stripe[]>(num_stripes_);
  slots_.reset(static_cast<Slot*>(std::calloc(capacity(), sizeof(Slot))));
  NEO_CHECK_MSG(slots_ != nullptr, "ScoreCache: out of memory");
}

size_t ScoreCache::SetOf(uint64_t key) const {
  return static_cast<size_t>(Mix64(key)) & (num_sets_ - 1);
}

bool ScoreCache::Get(uint64_t key, float* score) {
  const size_t set = SetOf(key);
  Stripe& stripe = stripes_[set >> stripe_shift_];
  std::lock_guard<std::mutex> lock(stripe.mu);
  Slot* const end = slots_.get() + (set + 1) * ways_;
  for (Slot* slot = slots_.get() + set * ways_; slot < end && slot->stamp != 0;
       ++slot) {
    if (slot->key != key) continue;
    *score = slot->score;
    slot->stamp = Tick(stripe);
    ++stripe.stats.hits;
    return true;
  }
  ++stripe.stats.misses;
  return false;
}

bool ScoreCache::Insert(uint64_t key, float score) {
  const size_t set = SetOf(key);
  Stripe& stripe = stripes_[set >> stripe_shift_];
  std::lock_guard<std::mutex> lock(stripe.mu);
  Slot* const end = slots_.get() + (set + 1) * ways_;
  Slot* slot = slots_.get() + set * ways_;
  Slot* victim = slot;
  uint32_t victim_age = 0;
  for (; slot < end; ++slot) {
    if (slot->stamp == 0) {
      ++stripe.stats.entries;
      break;
    }
    if (slot->key == key) break;
    const uint32_t age = stripe.clock - slot->stamp;
    if (age >= victim_age) {
      victim = slot;
      victim_age = age;
    }
  }
  const bool evicted = slot == end;
  if (evicted) {
    slot = victim;
    ++stripe.stats.evictions;
  }
  slot->key = key;
  slot->score = score;
  slot->stamp = Tick(stripe);
  return evicted;
}

CacheStats ScoreCache::TotalStats() const {
  CacheStats total;
  for (size_t s = 0; s < num_stripes_; ++s) {
    const Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    total.hits += stripe.stats.hits;
    total.misses += stripe.stats.misses;
    total.evictions += stripe.stats.evictions;
    total.entries += stripe.stats.entries;
  }
  return total;
}

}  // namespace neo::util
