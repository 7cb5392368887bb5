#pragma once
// Open-addressing hash map for integer keys on simulator hot paths.
//
// `std::unordered_map` costs a heap node per entry and a pointer chase per
// lookup; profiles of bench_scaleout showed its `find` alone at ~2% of wall
// time in the Tracer's open-packet cursor map, which is this map's only
// user. It is a single flat array with linear probing and backward-shift
// deletion: no tombstones, no per-entry allocation, and — because capacity
// only grows — zero allocations in steady state once the high-water size is
// reached.
//
// Scope is deliberately narrow: trivially-copyable keys/values (entries are
// relocated by assignment during deletion and rehash), no iteration order
// guarantees, and a mixing hash applied to the raw integer key so adversarial
// or arithmetic key patterns (timestamps in fixed steps) still spread.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace u5g {

/// Final mixer of splitmix64 — full-avalanche on 64-bit integers.
struct IntHash {
  [[nodiscard]] std::size_t operator()(std::uint64_t x) const {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// Flat hash map from an integer-like key to a small value.
template <typename K, typename V, typename Hash = IntHash>
class FlatHashMap {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent. Stable only
  /// until the next insert (rehash may relocate entries).
  [[nodiscard]] V* find(K key) {
    if (count_ == 0) return nullptr;
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(key, mask);
    while (table_[i].used) {
      if (table_[i].key == key) return &table_[i].val;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  [[nodiscard]] const V* find(K key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  [[nodiscard]] bool contains(K key) const { return find(key) != nullptr; }

  /// Value for `key`, default-constructed and inserted when absent.
  V& operator[](K key) {
    grow_if_needed();
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(key, mask);
    while (table_[i].used) {
      if (table_[i].key == key) return table_[i].val;
      i = (i + 1) & mask;
    }
    table_[i].used = true;
    table_[i].key = key;
    table_[i].val = V{};
    ++count_;
    return table_[i].val;
  }

  /// Remove `key`; returns true when it was present. Backward-shift
  /// deletion keeps every remaining entry reachable without tombstones.
  bool erase(K key) {
    if (count_ == 0) return false;
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = home(key, mask);
    while (true) {
      if (!table_[hole].used) return false;
      if (table_[hole].key == key) break;
      hole = (hole + 1) & mask;
    }
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) & mask;
      if (!table_[j].used) break;
      // An entry probing from `home` may be pulled back into the hole only
      // if the hole still lies on its probe path: dist(home -> j) must be
      // at least dist(hole -> j), both measured forward with wraparound.
      const std::size_t h = home(table_[j].key, mask);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole].used = false;
    --count_;
    return true;
  }

  void clear() {
    for (Entry& e : table_) e.used = false;
    count_ = 0;
  }

  /// Pre-size the table for at least `n` entries without rehashing later.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 < n * 10) cap *= 2;  // keep load factor <= 0.7
    if (cap > table_.size()) rehash(cap);
  }

 private:
  struct Entry {
    K key;
    V val;
    bool used = false;
  };
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] static std::size_t home(K key, std::size_t mask) {
    return Hash{}(static_cast<std::uint64_t>(key)) & mask;
  }

  void grow_if_needed() {
    if (table_.empty()) {
      rehash(kMinCapacity);
    } else if ((count_ + 1) * 10 > table_.size() * 7) {
      rehash(table_.size() * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Entry> old = std::move(table_);
    table_.assign(new_cap, Entry{});
    const std::size_t mask = new_cap - 1;
    for (const Entry& e : old) {
      if (!e.used) continue;
      std::size_t i = home(e.key, mask);
      while (table_[i].used) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t count_ = 0;
};

}  // namespace u5g
