// Fixed-capacity, set-associative cache of fixed-width float rows: the
// process-global store behind the serving core's shared score and activation
// caches (core::SharedSearchCaches). Scores are rows of width 1; activation
// rows are ValueNetwork::TotalConvChannels() floats.
//
// Layout. Three flat slot arrays hold 64-bit keys, uint32 recency stamps and
// uint32 row references; the rows live in one block split into one region
// per stripe. Mix64(key) picks an 8-way set and a hit compares the full
// 64-bit key. A reference of 0 marks an empty way, so key 0 is an ordinary
// key. Every array is zero-filled lazily (calloc), and each stripe hands out
// the rows of its region in fill order while an eviction overwrites the
// victim's row in place, so resident memory follows the number of entries,
// not the capacity. Entries are never removed, so the occupied ways of a set
// are always a prefix of it.
//
// Replacement. Insert overwrites and touches an existing key without
// evicting. Otherwise it fills the set's next empty way, or evicts the way
// with the oldest stamp. Stamps come from a per-stripe uint32 clock and are
// compared by age (clock - stamp), so wrap-around is harmless. Get touches
// the stamp too, so each set is an exact 8-entry LRU.
//
// Locking. The sets are split into contiguous stripes, one mutex each. Get
// copies the row out under the lock, so no pointer into the cache escapes
// and a concurrent insert or eviction can never change a row a caller is
// reading. That is the property that lets concurrent searches share rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace neo::util {

/// Exact counter totals of one RowCache.
struct RowCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

class RowCache {
 public:
  static constexpr size_t kWays = 8;

  /// Rows of `width` floats (>= 1). `cap` (>= 1) is an upper bound on the
  /// entries: the cache holds the largest power-of-two number of 8-way sets
  /// that fits in it, or one set of `cap` ways when cap < 8. `stripes` is the
  /// lock-stripe count, rounded up to a power of two and clamped to
  /// [1, number of sets].
  RowCache(size_t width, size_t cap, int stripes);

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  /// On a hit, copies the row of `key` into out[0, width()), marks it most
  /// recently used and returns true. A miss leaves `out` untouched.
  bool Get(uint64_t key, float* out);

  /// Stores row[0, width()) under `key`, overwriting and touching an
  /// existing entry. Returns true iff another key's entry was evicted.
  bool Insert(uint64_t key, const float* row);

  /// Exact counter totals summed across stripes (takes every stripe lock).
  RowCacheStats TotalStats() const;

  size_t width() const { return width_; }
  size_t capacity() const { return num_sets_ * ways_; }
  int num_stripes() const { return static_cast<int>(num_stripes_); }

 private:
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using CallocArray = std::unique_ptr<T[], FreeDeleter>;

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    uint32_t clock = 0;   ///< Last stamp handed out; guarded by mu.
    RowCacheStats stats;  ///< stats.entries also indexes the next free row.
  };

  template <typename T>
  static CallocArray<T> Calloc(size_t n);

  size_t SetOf(uint64_t key) const;
  float* RowAt(uint32_t ref) const {
    return rows_.get() + static_cast<size_t>(ref - 1) * width_;
  }

  size_t width_ = 0;
  size_t ways_ = 0;
  size_t num_sets_ = 0;
  size_t num_stripes_ = 0;
  int stripe_shift_ = 0;  ///< log2(sets per stripe): set >> shift = stripe.
  std::unique_ptr<Stripe[]> stripes_;
  // Slot arrays, indexed set * ways_ + way; written only under the owning
  // stripe's lock.
  CallocArray<uint64_t> keys_;
  CallocArray<uint32_t> stamps_;
  CallocArray<uint32_t> refs_;  ///< Row index + 1; 0 = empty way.
  CallocArray<float> rows_;
};

}  // namespace neo::util
