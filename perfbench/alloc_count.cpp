#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void alloc_counter_enable(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

void alloc_counter_reset() { g_allocs.store(0, std::memory_order_relaxed); }

std::uint64_t alloc_counter_value() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// The other forms (array, nothrow, sized delete) forward to these two in
// libstdc++, so replacing them counts every non-aligned allocation.
void* operator new(std::size_t size) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
