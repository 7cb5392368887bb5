#pragma once
// Counting replacement of the global allocation functions, for the tests
// that assert a hot path performs zero heap allocations: read `g_allocs`
// before and after the path and compare.
//
// Replacement allocation functions may not be inline, so this header
// defines them outright: include it from exactly one translation unit of a
// test binary. They are `noinline` so that GCC does not pair an inlined
// malloc with a free and warn -Wmismatched-new-delete. The aligned forms are
// counted too: over-aligned objects (the simulator's cache-line slots) go
// through them, not through the plain forms. Single-threaded tests read the
// counter between statements, so a relaxed atomic is plenty.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocs{0};

void* aligned_malloc(std::size_t size, std::align_val_t align) noexcept {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a non-zero size that is a multiple of the alignment.
  return std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = aligned_malloc(size, align)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return aligned_malloc(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
