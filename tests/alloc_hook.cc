#include "alloc_hook.h"

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    const std::uint64_t n = g_allocs.fetch_add(1, std::memory_order_relaxed);
    // Debug aid for zero-allocation regressions: with
    // HOSTCC_ALLOC_BACKTRACE set, the first few counted allocations dump
    // raw backtraces to stderr (symbolize with addr2line -f -C -e <bin>).
    if (n < 10 && std::getenv("HOSTCC_ALLOC_BACKTRACE") != nullptr) {
      void* frames[32];
      const int depth = backtrace(frames, 32);
      backtrace_symbols_fd(frames, depth, STDERR_FILENO);
      write(STDERR_FILENO, "----\n", 5);
    }
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must pair with the replaced deletes too: left to the
// runtime (or a sanitizer), their memory would be released by free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hostcc::testing {

void reset_alloc_count() { g_allocs.store(0); }
void set_alloc_counting(bool on) { g_count_allocs.store(on); }
std::uint64_t alloc_count() { return g_allocs.load(); }

}  // namespace hostcc::testing
