// Heap bytes held by vectors' capacity: what a recycled object keeps
// across reuses, which its owner bounds before keeping it.
#pragma once

#include <cstddef>
#include <vector>

namespace mcs {

template <typename... T>
[[nodiscard]] std::size_t capacity_bytes(const std::vector<T>&... buffers) {
  return ((buffers.capacity() * sizeof(T)) + ... + 0);
}

}  // namespace mcs
