// Minimal open-addressed hash containers for uint64 keys.
//
// The hive's ingestion hot path does one membership insert (trace-id dedup)
// and one map lookup (program -> corpus entry) per trace; node-based
// std::unordered_* containers pay an allocation per insert and a pointer
// chase per find, which dominates once the rest of the pipeline is lean.
// These containers keep everything in one flat array: keys are scrambled
// with a splitmix64 finalizer and probed linearly at <= 50% load.
//
// Deliberately tiny API (insert/find/reserve/size; the set adds clear() and
// capacity()). No erase: deleting from a linear-probe table needs tombstones or
// back-shifting, and the one user that forgets keys (the hive's dedup
// window) forgets a whole day at once, which clear() does while keeping the
// table's capacity. Anything needing richer semantics should stay on the
// standard containers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace softborg {

// splitmix64 finalizer: bijective, so distinct keys stay distinct, and the
// output's low bits are uniform enough to index a power-of-two table.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Set of uint64 keys. Slot value 0 marks an empty slot; the key 0 itself is
// tracked out of band so every key value is representable.
class FlatU64Set {
 public:
  explicit FlatU64Set(std::size_t expected = 0) { rehash(slots_for(expected)); }

  // Returns true when `key` was newly inserted, false when already present.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    if ((count_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
    std::size_t slot = mix64(key) & mask_;
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = key;
    count_++;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == 0) return has_zero_;
    std::size_t slot = mix64(key) & mask_;
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  std::size_t size() const { return count_ + (has_zero_ ? 1 : 0); }
  // Table slots; up to half of them fill before the table doubles.
  std::size_t capacity() const { return slots_.size(); }

  // Grows the table so `expected` total keys fit without further rehashing.
  void reserve(std::size_t expected) {
    const std::size_t want = slots_for(expected);
    if (want > slots_.size()) rehash(want);
  }

  // Forgets every key and keeps the table's capacity, so refilling it to
  // the same size neither allocates nor rehashes.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    count_ = 0;
    has_zero_ = false;
  }

  // Visits every key in slot order (unspecified, hash-dependent). The one
  // sanctioned iteration: the durable store serializes the dedup window,
  // and sorts the visited keys itself so the snapshot bytes never depend
  // on table history (capacity kept by clear(), insertion order).
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0});
    for (const std::uint64_t key : slots_) {
      if (key != 0) f(key);
    }
  }

 private:
  static std::size_t slots_for(std::size_t expected) {
    return std::bit_ceil(expected * 2 + 16);  // load factor <= 50%
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(new_slots, 0);
    mask_ = new_slots - 1;
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t slot = mix64(key) & mask_;
      while (slots_[slot] != 0) slot = (slot + 1) & mask_;
      slots_[slot] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  bool has_zero_ = false;
};

// Map from uint64 keys to non-null pointers; a null value marks an empty
// slot, so all key values (including 0) are representable.
template <typename T>
class FlatU64PtrMap {
 public:
  explicit FlatU64PtrMap(std::size_t expected = 0) {
    rehash(slots_for(expected));
  }

  // Inserts key -> value (value must be non-null); keeps the existing value
  // when the key is already present, mirroring std::unordered_map::emplace.
  void insert(std::uint64_t key, T* value) {
    if ((count_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
    std::size_t slot = mix64(key) & mask_;
    while (slots_[slot].second != nullptr) {
      if (slots_[slot].first == key) return;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = {key, value};
    count_++;
  }

  // Null when absent.
  T* find(std::uint64_t key) const {
    std::size_t slot = mix64(key) & mask_;
    while (slots_[slot].second != nullptr) {
      if (slots_[slot].first == key) return slots_[slot].second;
      slot = (slot + 1) & mask_;
    }
    return nullptr;
  }

  std::size_t size() const { return count_; }

  void reserve(std::size_t expected) {
    const std::size_t want = slots_for(expected);
    if (want > slots_.size()) rehash(want);
  }

 private:
  static std::size_t slots_for(std::size_t expected) {
    return std::bit_ceil(expected * 2 + 16);
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::pair<std::uint64_t, T*>> old = std::move(slots_);
    slots_.assign(new_slots, {0, nullptr});
    mask_ = new_slots - 1;
    for (const auto& [key, value] : old) {
      if (value == nullptr) continue;
      std::size_t slot = mix64(key) & mask_;
      while (slots_[slot].second != nullptr) slot = (slot + 1) & mask_;
      slots_[slot] = {key, value};
    }
  }

  std::vector<std::pair<std::uint64_t, T*>> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace softborg
