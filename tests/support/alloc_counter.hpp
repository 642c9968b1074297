// Heap-allocation probe for tests.
//
// Replaces every global allocation form -- plain, array, nothrow and
// aligned operator new, with every matching operator delete -- by a
// malloc/free pair that counts each allocation and its bytes. All forms
// must be replaced together: a library path that allocates through a form
// left out (std::stable_sort's temporary buffer uses the nothrow one)
// would hand the replaced operator delete a block the toolchain's own
// operator new made, which AddressSanitizer reports as an alloc-dealloc
// mismatch.
//
// The replacements are definitions: include this header from exactly one
// translation unit of a test binary. Counting is the only extra work, so
// every other test in the binary runs unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mcs::test {

inline std::atomic<std::uint64_t> g_heap_allocations{0};
inline std::atomic<std::uint64_t> g_heap_bytes{0};

/// Heap allocations made by this process so far, through any operator new.
inline std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

/// Bytes those allocations requested, in total (frees are not subtracted).
inline std::uint64_t heap_bytes() {
  return g_heap_bytes.load(std::memory_order_relaxed);
}

namespace alloc_detail {

inline void* counted_malloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned(std::size_t size,
                             std::align_val_t align) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

inline void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_detail
}  // namespace mcs::test

namespace counted = mcs::test::alloc_detail;

void* operator new(std::size_t size) {
  return counted::or_throw(counted::counted_malloc(size));
}
void* operator new[](std::size_t size) {
  return counted::or_throw(counted::counted_malloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted::counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted::or_throw(counted::counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted::or_throw(counted::counted_aligned(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted::counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted::counted_aligned(size, align);
}

// Inlined into a caller, GCC sees the replaced operator new's malloc meet
// this free() through new/delete and warns of a mismatch; the pair is
// matched by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
