// Device memory: real byte storage tagged with the owning fabric device.
//
// This is the analogue of the paper's multiple physical address spaces
// (§4.1): a buffer lives in exactly one device's memory; moving bytes
// between buffers on different devices costs fabric time (see DmaEngine and
// WindowCopier). A MemRef is the (device, address, length) triple that RPC
// messages and NVMe commands carry in place of data for zero-copy I/O
// (§4.3.1) — the moral equivalent of a physical address in a system-mapped
// PCIe window. It names either a window of a DeviceBuffer or any plain
// memory the caller declares to live on a device (MemRef::On), so a host
// submission can point the device straight at the caller's bytes.
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
#include <type_traits>

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

// A non-owning window of `length` bytes at `addr` in `device()`'s memory.
// Plain data: FsRequest carries it through the rings byte for byte, so its
// size is part of the modeled message size.
struct MemRef {
  uint8_t* addr = nullptr;
  uint64_t length = 0;
  DeviceId owner;
  uint32_t reserved = 0;  // explicit, so the ring bytes are all defined

  static MemRef Of(DeviceBuffer& buf) {
    return On(buf.device(), {buf.data(), buf.size()});
  }
  static MemRef Of(DeviceBuffer& buf, uint64_t offset, uint64_t length) {
    return On(buf.device(), buf.Span(offset, length));
  }
  // Plain memory that lives on `device` (for host submissions, the host's
  // DRAM); the caller keeps it alive while any DMA names it.
  static MemRef On(DeviceId device, std::span<uint8_t> bytes) {
    return MemRef{bytes.data(), bytes.size(), device};
  }

  bool valid() const { return addr != nullptr; }
  DeviceId device() const {
    DCHECK(valid());
    return owner;
  }
  std::span<uint8_t> span() const { return {addr, length}; }

  // A sub-window relative to this one.
  MemRef Sub(uint64_t rel_offset, uint64_t sub_length) const {
    CHECK_LE(rel_offset + sub_length, length);
    return MemRef{addr + rel_offset, sub_length, owner};
  }
};
static_assert(sizeof(MemRef) == 24 &&
                  std::has_unique_object_representations_v<MemRef>,
              "FsRequest's ring size counts a padding-free 24-byte MemRef");

}  // namespace solros

#endif  // SOLROS_SRC_HW_MEMORY_H_
