// Block storage abstraction under SolrosFS.
//
// Two implementations:
//  * MemBlockStore — instant, in-memory; used by file-system unit tests so
//    FS logic is verified independently of device timing.
//  * NvmeBlockStore (nvme_block_store.h) — backed by the simulated NVMe
//    device, charging real queue/flash/fabric time and supporting the
//    zero-copy vectorized path the Solros proxy uses.
#ifndef SOLROS_SRC_FS_BLOCK_STORE_H_
#define SOLROS_SRC_FS_BLOCK_STORE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/sim/task.h"

namespace solros {

// One contiguous run of blocks paired with its (equally contiguous) memory.
// Vectored I/O takes a span of runs so physically scattered block ranges —
// the buffer cache's coalesced write-back batches, readahead windows split
// by already-cached pages — move in one submission.
struct BlockRun {
  uint64_t lba = 0;
  uint32_t nblocks = 0;
  std::span<uint8_t> data;  // nblocks * block_size() bytes
};

struct ConstBlockRun {
  uint64_t lba = 0;
  uint32_t nblocks = 0;
  std::span<const uint8_t> data;
};

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t block_count() const = 0;

  // Byte destinations/sources are plain host memory, which a device-backed
  // store DMAs straight to or from (see NvmeBlockStore's DMA contract).
  virtual Task<Status> Read(uint64_t lba, uint32_t nblocks,
                            std::span<uint8_t> out) = 0;
  virtual Task<Status> Write(uint64_t lba, uint32_t nblocks,
                             std::span<const uint8_t> in) = 0;
  // Durability barrier: on Ok return, every Write acked before this call is
  // on stable media and survives a power cut. Write-through stores (no
  // volatile cache) satisfy the contract vacuously and may return
  // immediately; write-back stores must issue a real device flush. Callers
  // needing FUA-like semantics issue Write then Flush — there is no
  // per-command forced-unit-access flag.
  virtual Task<Status> Flush() = 0;

  // Vectored multi-run I/O. The default implementations issue one plain
  // Read/Write per run; device-backed stores override them to submit the
  // whole vector in one batch (`coalesce` = one doorbell + one interrupt,
  // §5's I/O-vector ioctls).
  virtual Task<Status> ReadV(std::span<const BlockRun> runs, bool coalesce) {
    (void)coalesce;
    for (const BlockRun& run : runs) {
      SOLROS_CO_RETURN_IF_ERROR(co_await Read(run.lba, run.nblocks, run.data));
    }
    co_return OkStatus();
  }
  virtual Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                              bool coalesce) {
    (void)coalesce;
    for (const ConstBlockRun& run : runs) {
      SOLROS_CO_RETURN_IF_ERROR(
          co_await Write(run.lba, run.nblocks, run.data));
    }
    co_return OkStatus();
  }
};

// Instant in-memory store.
class MemBlockStore : public BlockStore {
 public:
  MemBlockStore(uint32_t block_size, uint64_t block_count)
      : block_size_(block_size),
        data_(block_size * block_count, 0),
        block_count_(block_count) {}

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  Task<Status> Read(uint64_t lba, uint32_t nblocks,
                    std::span<uint8_t> out) override {
    if (Status status = Check(lba, nblocks, out.size()); !status.ok()) {
      co_return status;
    }
    std::memcpy(out.data(), data_.data() + lba * block_size_,
                uint64_t{nblocks} * block_size_);
    co_return OkStatus();
  }

  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    if (Status status = Check(lba, nblocks, in.size()); !status.ok()) {
      co_return status;
    }
    std::memcpy(data_.data() + lba * block_size_, in.data(),
                uint64_t{nblocks} * block_size_);
    co_return OkStatus();
  }

  // Write-through by construction: every acked Write already landed in
  // data_, so the durability barrier is a documented no-op.
  Task<Status> Flush() override { co_return OkStatus(); }

  std::span<uint8_t> raw() { return {data_.data(), data_.size()}; }

 private:
  Status Check(uint64_t lba, uint32_t nblocks, size_t span_bytes) const {
    if (lba + nblocks > block_count_) {
      return OutOfRangeError("block IO beyond device");
    }
    if (span_bytes < uint64_t{nblocks} * block_size_) {
      return InvalidArgumentError("block IO span too short");
    }
    return OkStatus();
  }

  uint32_t block_size_;
  std::vector<uint8_t> data_;
  uint64_t block_count_;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_BLOCK_STORE_H_
