// Replacement of the global allocation functions: every block obtained
// through operator new is counted by malloc_usable_size, so the counter
// tracks what the allocator really hands out, including the aligned
// overloads AlignedDataset uses.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench/measure.h"

namespace {

std::atomic<std::size_t> g_current{0};
std::atomic<std::size_t> g_peak{0};

void Count(void* p) {
  const std::size_t size = malloc_usable_size(p);
  const std::size_t now =
      g_current.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void* Allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  Count(p);
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  Count(p);
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_current.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::size_t HeapCurrentBytes() {
  return g_current.load(std::memory_order_relaxed);
}
std::size_t HeapPeakBytes() { return g_peak.load(std::memory_order_relaxed); }
void HeapResetPeak() {
  g_peak.store(g_current.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
