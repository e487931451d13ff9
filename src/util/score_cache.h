// Fixed-capacity, set-associative cache of plan scores: the process-global
// score table the serving core's searches share (see
// core::PlanSearch::BindScoreCache).
//
// Layout. One flat slot array holds each way's 64-bit key, uint32 recency
// stamp and float score. Mix64(key) picks an 8-way set and a hit compares the
// full 64-bit key. A stamp of 0 marks an empty way (the clocks skip 0), so
// key 0 is an ordinary key. The array is zero-filled lazily (calloc), so
// resident memory follows the number of entries, not the capacity. Entries
// are never removed, so the occupied ways of a set are always a prefix of it.
//
// Replacement. Insert overwrites and touches an existing key without
// evicting. Otherwise it fills the set's next empty way, or evicts the way
// with the oldest stamp. Stamps come from a per-stripe uint32 clock and are
// compared by age (clock - stamp), so wrap-around is harmless. Get touches
// the stamp too, so each set is an exact 8-entry LRU.
//
// Locking. The sets are split into contiguous stripes, one mutex each. Get
// copies the score out under the lock, so no pointer into the cache escapes.
// That is the property that lets concurrent searches share scores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace neo::util {

/// Exact counter totals of one cache.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

class ScoreCache {
 public:
  static constexpr size_t kWays = 8;

  /// `cap` (>= 1) is an upper bound on the entries: the cache holds the
  /// largest power-of-two number of 8-way sets that fits in it, or one set of
  /// `cap` ways when cap < 8. `stripes` is the lock-stripe count, rounded up
  /// to a power of two and clamped to [1, number of sets].
  ScoreCache(size_t cap, int stripes);

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// On a hit, stores the score of `key` in *score, marks it most recently
  /// used and returns true. A miss leaves *score untouched.
  bool Get(uint64_t key, float* score);

  /// Stores `score` under `key`, overwriting and touching an existing entry.
  /// Returns true iff another key's entry was evicted.
  bool Insert(uint64_t key, float score);

  /// Exact counter totals summed across stripes (takes every stripe lock).
  CacheStats TotalStats() const;

  size_t capacity() const { return num_sets_ * ways_; }
  int num_stripes() const { return static_cast<int>(num_stripes_); }

 private:
  struct Slot {
    uint64_t key;
    uint32_t stamp;  ///< 0: empty way.
    float score;
  };

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    uint32_t clock = 0;  ///< Last stamp handed out; guarded by mu.
    CacheStats stats;
  };

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  size_t SetOf(uint64_t key) const;
  /// Next stamp of `stripe`'s clock, never 0.
  static uint32_t Tick(Stripe& stripe) {
    if (++stripe.clock == 0) ++stripe.clock;
    return stripe.clock;
  }

  size_t ways_ = 0;
  size_t num_sets_ = 0;
  size_t num_stripes_ = 0;
  int stripe_shift_ = 0;  ///< log2(sets per stripe): set >> shift = stripe.
  std::unique_ptr<Stripe[]> stripes_;
  /// Indexed set * ways_ + way; written only under the owning stripe's lock.
  std::unique_ptr<Slot[], FreeDeleter> slots_;
};

}  // namespace neo::util
