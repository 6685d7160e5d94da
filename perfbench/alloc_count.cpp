#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t perfbench::thread_allocs() { return t_allocs; }

void* operator new(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
