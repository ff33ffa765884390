// Device memory: real byte storage tagged with the owning fabric device.
//
// This is the analogue of the paper's multiple physical address spaces
// (§4.1): a buffer lives in exactly one device's memory; moving bytes
// between buffers on different devices costs fabric time (see DmaEngine and
// WindowCopier). A MemRef is the (buffer, offset, length) triple that RPC
// messages carry in place of data for zero-copy I/O (§4.3.1) — the moral
// equivalent of a physical address in a system-mapped PCIe window.
//
// Device bytes start zeroed and cost host memory only once written: a
// buffer comes from calloc, which glibc serves for large blocks from fresh
// anonymous mmap without a memset. A page that is only read maps the
// kernel's shared zero page; a page is allocated on its first write. So a
// Machine's 2 GiB flash image and 128 MiB cache arena occupy host RAM in
// proportion to the bytes the simulation writes, not to their capacity.
#ifndef SOLROS_SRC_HW_MEMORY_H_
#define SOLROS_SRC_HW_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>

#include "src/base/logging.h"
#include "src/hw/fabric.h"

namespace solros {

class DeviceBuffer {
 public:
  // Zero-filled. A zero-size buffer still owns a valid (1-byte) block, so
  // data() is never null.
  DeviceBuffer(DeviceId device, size_t size)
      : device_(device),
        size_(size),
        bytes_(static_cast<uint8_t*>(std::calloc(size > 0 ? size : 1, 1))) {
    CHECK(bytes_ != nullptr) << "cannot allocate " << size
                             << " device bytes";
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceId device() const { return device_; }
  size_t size() const { return size_; }
  uint8_t* data() { return bytes_.get(); }
  const uint8_t* data() const { return bytes_.get(); }

  std::span<uint8_t> Span(uint64_t offset, uint64_t length) {
    CHECK_LE(offset + length, size_);
    return {bytes_.get() + offset, length};
  }
  std::span<const uint8_t> Span(uint64_t offset, uint64_t length) const {
    CHECK_LE(offset + length, size_);
    return {bytes_.get() + offset, length};
  }

 private:
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  DeviceId device_;
  size_t size_;
  std::unique_ptr<uint8_t, Free> bytes_;
};

// A non-owning window into a DeviceBuffer.
struct MemRef {
  DeviceBuffer* buffer = nullptr;
  uint64_t offset = 0;
  uint64_t length = 0;

  static MemRef Of(DeviceBuffer& buf) {
    return MemRef{&buf, 0, buf.size()};
  }
  static MemRef Of(DeviceBuffer& buf, uint64_t offset, uint64_t length) {
    CHECK_LE(offset + length, buf.size());
    return MemRef{&buf, offset, length};
  }

  bool valid() const { return buffer != nullptr; }
  DeviceId device() const {
    DCHECK(buffer != nullptr);
    return buffer->device();
  }
  std::span<uint8_t> span() const { return buffer->Span(offset, length); }

  // A sub-window relative to this one.
  MemRef Sub(uint64_t rel_offset, uint64_t sub_length) const {
    CHECK_LE(rel_offset + sub_length, length);
    return MemRef{buffer, offset + rel_offset, sub_length};
  }
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_MEMORY_H_
