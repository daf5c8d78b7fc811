// Counting overrides of the global allocation functions.
//
// Relaxed atomics: sharded runs allocate from worker threads, and the
// counter is only read at barriers (every domain quiescent), so relaxed
// increments give exact counts without ordering cost.  Every new/new[]
// forwards to malloc and counts; delete/delete[] forward to free.

#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

namespace {

void* counted_alloc(std::size_t size) {
  perfbench::count_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

// Aligned-allocation overloads: without these, over-aligned types would
// bypass the counter.
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
