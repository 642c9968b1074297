// A flat open-addressing set of int ids.
//
// Membership checks on a hot path (the one-bid-per-agent rule of every
// served round) without a heap node per element: linear probing over one
// power-of-two table, kept at most half full, that doubles when it fills.
// An empty slot holds 0 and id k is stored as its 32-bit pattern plus one,
// widened to 64 bits, so every int is representable.
//
// Ids arrive from untrusted streams, so nothing here is sized by an id's
// value -- the table grows with the number of ids only -- and the probe
// start is a per-process seeded mix of the id, so a stream cannot pick ids
// that all land in one probe run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/buffers.hpp"

namespace mcs {

class FlatIdSet {
 public:
  [[nodiscard]] bool contains(int id) const {
    if (slots_.empty()) return false;
    const std::uint64_t key = key_of(id);
    for (std::size_t at = home(key);; at = (at + 1) & mask()) {
      if (slots_[at] == key) return true;
      if (slots_[at] == 0) return false;
    }
  }

  /// Adds `id`; false when it was already present.
  bool insert(int id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint64_t key = key_of(id);
    std::size_t at = home(key);
    while (slots_[at] != 0) {
      if (slots_[at] == key) return false;
      at = (at + 1) & mask();
    }
    slots_[at] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Empties the set, keeping its table: O(table size), with no
  /// allocation when the set is refilled to no more than before.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
  }

  /// Heap bytes the table holds.
  [[nodiscard]] std::size_t retained_bytes() const {
    return capacity_bytes(slots_);
  }

 private:
  static constexpr std::size_t kMinSlots = 64;

  static std::uint64_t key_of(int id) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) + 1;
  }

  /// splitmix64's finalizer over the seeded key.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    static const std::uint64_t seed = [] {
      std::random_device device;
      return (static_cast<std::uint64_t>(device()) << 32) ^ device();
    }();
    std::uint64_t x = key ^ seed;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask();
  }

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<std::uint64_t> old(
        slots_.empty() ? kMinSlots : 2 * slots_.size(), 0);
    old.swap(slots_);
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t at = home(key);
      while (slots_[at] != 0) at = (at + 1) & mask();
      slots_[at] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_{0};
};

}  // namespace mcs
