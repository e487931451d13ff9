#include "src/util/row_cache.h"

#include <cstring>
#include <limits>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::util {

template <typename T>
RowCache::CallocArray<T> RowCache::Calloc(size_t n) {
  CallocArray<T> out(static_cast<T*>(std::calloc(n, sizeof(T))));
  NEO_CHECK_MSG(out != nullptr, "RowCache: out of memory");
  return out;
}

RowCache::RowCache(size_t width, size_t cap, int stripes) : width_(width) {
  NEO_CHECK(width >= 1);
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
  const size_t slots = capacity();
  keys_ = Calloc<uint64_t>(slots);
  stamps_ = Calloc<uint32_t>(slots);
  refs_ = Calloc<uint32_t>(slots);
  NEO_CHECK(slots <= std::numeric_limits<size_t>::max() / width_);
  rows_ = Calloc<float>(slots * width_);
}

size_t RowCache::SetOf(uint64_t key) const {
  return static_cast<size_t>(Mix64(key)) & (num_sets_ - 1);
}

bool RowCache::Get(uint64_t key, float* out) {
  const size_t set = SetOf(key);
  Stripe& stripe = stripes_[set >> stripe_shift_];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const size_t end = (set + 1) * ways_;
  for (size_t slot = set * ways_; slot < end && refs_[slot] != 0; ++slot) {
    if (keys_[slot] != key) continue;
    std::memcpy(out, RowAt(refs_[slot]), width_ * sizeof(float));
    stamps_[slot] = ++stripe.clock;
    ++stripe.stats.hits;
    return true;
  }
  ++stripe.stats.misses;
  return false;
}

bool RowCache::Insert(uint64_t key, const float* row) {
  const size_t set = SetOf(key);
  const size_t stripe_index = set >> stripe_shift_;
  Stripe& stripe = stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const size_t end = (set + 1) * ways_;
  size_t slot = set * ways_;
  size_t victim = slot;
  uint32_t victim_age = 0;
  for (; slot < end; ++slot) {
    if (refs_[slot] == 0) {
      // Fill: the next unused row of this stripe's region.
      const size_t index =
          (stripe_index << stripe_shift_) * ways_ + stripe.stats.entries++;
      refs_[slot] = static_cast<uint32_t>(index + 1);
      keys_[slot] = key;
      break;
    }
    if (keys_[slot] == key) break;
    const uint32_t age = stripe.clock - stamps_[slot];
    if (age >= victim_age) {
      victim = slot;
      victim_age = age;
    }
  }
  const bool evicted = slot == end;
  if (evicted) {
    slot = victim;
    keys_[slot] = key;
    ++stripe.stats.evictions;
  }
  std::memcpy(RowAt(refs_[slot]), row, width_ * sizeof(float));
  stamps_[slot] = ++stripe.clock;
  return evicted;
}

RowCacheStats RowCache::TotalStats() const {
  RowCacheStats total;
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
