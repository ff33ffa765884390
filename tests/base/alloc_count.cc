#include "tests/base/alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

bool counting = false;
uint64_t allocations = 0;

}  // namespace

// Out of line, as is operator delete below: inlined, GCC sees malloc()
// paired with operator delete, or new with free(), and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (counting) {
    ++allocations;
  }
  if (void* block = std::malloc(bytes == 0 ? 1 : bytes)) {
    return block;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace solros {

void StartCountingAllocations() {
  allocations = 0;
  counting = true;
}

uint64_t StopCountingAllocations() {
  counting = false;
  return allocations;
}

}  // namespace solros
