// Exact-LRU bounded map: the execution engine's latency memo.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace neo::util {

/// Exact least-recently-used map: Find() touches (moves to most-recent),
/// Insert() evicts the least-recently-used entry once past the capacity.
/// Move-only (the index holds list iterators, which a copy would leave
/// dangling). Value pointers returned by Find()/Insert() stay valid until
/// that entry is evicted or the map is cleared — Find's splice and Insert's
/// emplace never relocate other list nodes — so callers may hold pointers
/// into the map across further Finds, but must not Insert while dereferencing
/// them (an insert past the cap destroys the LRU entry).
template <typename K, typename V>
class LruMap {
 public:
  LruMap() = default;
  LruMap(LruMap&&) = default;
  LruMap& operator=(LruMap&&) = default;
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// Drops all entries and sets the capacity; cap 0 = unbounded.
  void Clear(size_t cap) {
    order_.clear();
    index_.clear();
    cap_ = cap;
  }

  /// Returns the value (touched: now most recently used) or nullptr.
  V* Find(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);  // Touch: move to front.
    return &it->second->second;
  }

  /// Inserts key -> value (overwriting and touching an existing entry).
  /// Returns true if the insert evicted the least-recently-used entry.
  bool Insert(const K& key, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (cap_ == 0 || index_.size() <= cap_) return false;
    index_.erase(order_.back().first);
    order_.pop_back();
    return true;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return cap_; }

 private:
  using Entry = std::pair<K, V>;
  std::list<Entry> order_;  ///< Front = most recently used.
  std::unordered_map<K, typename std::list<Entry>::iterator> index_;
  size_t cap_ = 0;
};

}  // namespace neo::util
