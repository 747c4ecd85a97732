// A counting global operator new for allocation gates. It replaces the
// program's allocator, over-aligned forms included (the id digest's blocks
// are cache-line aligned), so include it from exactly one source file of a
// test binary. Every heap allocation of the binary passes through it, so the
// counts are exact and machine-independent.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace agb::test {
inline std::atomic<std::uint64_t> g_heap_allocs{0};

/// Heap allocations made by this process so far, from any thread.
inline std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace agb::test

// noinline keeps GCC from inlining the malloc/free bodies into call sites,
// where it would flag the new-via-malloc / delete-via-free pairing.
__attribute__((noinline)) void* operator new(std::size_t size) {
  agb::test::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

__attribute__((noinline)) void* operator new(std::size_t size,
                                             std::align_val_t align) {
  agb::test::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) ==
      0) {
    return p;
  }
  throw std::bad_alloc{};
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
