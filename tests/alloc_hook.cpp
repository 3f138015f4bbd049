// Replaces global operator new/delete for the whole test binary with
// counting malloc/free wrappers (see alloc_hook.hpp for what is counted).

#include "alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_sized_free_bytes{0};
std::atomic<std::size_t> g_largest_alloc{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  std::size_t largest = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > largest &&
         !g_largest_alloc.compare_exchange_weak(largest, n, std::memory_order_relaxed)) {
  }
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    if (posix_memalign(&p, align, n) != 0) throw std::bad_alloc();
  } else {
    p = std::malloc(n > 0 ? n : 1);
    if (p == nullptr) throw std::bad_alloc();
  }
  return p;
}

void sized_free(void* p, std::size_t n) {
  if (p != nullptr) g_sized_free_bytes.fetch_add(n, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace elephant::test {

std::uint64_t alloc_calls() { return g_alloc_calls.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }
std::uint64_t sized_free_bytes() {
  return g_sized_free_bytes.load(std::memory_order_relaxed);
}
std::size_t largest_alloc() { return g_largest_alloc.load(std::memory_order_relaxed); }
void reset_largest_alloc() { g_largest_alloc.store(0, std::memory_order_relaxed); }

}  // namespace elephant::test

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n) noexcept { sized_free(p, n); }
void operator delete[](void* p, std::size_t n) noexcept { sized_free(p, n); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n, std::align_val_t) noexcept { sized_free(p, n); }
void operator delete[](void* p, std::size_t n, std::align_val_t) noexcept { sized_free(p, n); }
