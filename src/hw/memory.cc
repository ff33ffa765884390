#include "src/hw/memory.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <cstdlib>

namespace solros {

DeviceBuffer::Bytes DeviceBuffer::Allocate(size_t size) {
  if (size < kHugePageBytes) {
    auto* bytes = static_cast<uint8_t*>(std::calloc(size > 0 ? size : 1, 1));
    CHECK(bytes != nullptr) << "cannot allocate " << size << " device bytes";
    return Bytes(bytes, Release{});
  }
  const size_t mapped =
      (size + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  // Over-map by one huge page, then trim to the aligned window inside, so
  // every 2 MiB of the buffer can be backed by one huge page.
  void* raw = mmap(nullptr, mapped + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(raw != MAP_FAILED) << "cannot map " << size << " device bytes";
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  auto* bytes = reinterpret_cast<uint8_t*>(start);
  const size_t head = start - base;
  if (head > 0) {
    munmap(raw, head);
  }
  munmap(bytes + mapped, kHugePageBytes - head);
  // Advice only: where transparent huge pages are off, the kernel ignores
  // it and the buffer is served in 4 KiB pages.
  madvise(bytes, mapped, MADV_HUGEPAGE);
  // The rounding slack is not the buffer's: under ASan, an overrun past
  // size() is reported as one past the end of a calloc'd block is.
  ASAN_POISON_MEMORY_REGION(bytes + size, mapped - size);
  return Bytes(bytes, Release{mapped});
}

void DeviceBuffer::Release::operator()(uint8_t* bytes) const {
  if (mapped == 0) {
    std::free(bytes);
    return;
  }
  // A pooled spare comes back poisoned; the shadow must not outlive the
  // mapping, or a later mapping at this address would read as poisoned.
  ASAN_UNPOISON_MEMORY_REGION(bytes, mapped);
  munmap(bytes, mapped);
}

}  // namespace solros
