// BlockStore backed by the simulated NVMe device.
//
// Byte-span reads/writes (metadata, buffered data) name the caller's host
// memory in their commands, and the device DMAs straight to or from it —
// the data path of a host-side file system, with no staging copy. The
// extent methods are the zero-copy path for memory the caller names as a
// MemRef (co-processor or host buffer-cache pages). Either way the NVMe DMA
// engine moves the data, optionally coalescing the whole vector into one
// doorbell + one interrupt (§5's p2p_read/p2p_write ioctls).
//
// DMA contract, for every method below: the memory a call names belongs to
// the device until the call returns. A write's source is read when its
// command completes, as a real DMA would, so the caller must not change it
// meanwhile. A read's destination may be partly written when the call
// fails.
#ifndef SOLROS_SRC_FS_NVME_BLOCK_STORE_H_
#define SOLROS_SRC_FS_NVME_BLOCK_STORE_H_

#include <vector>

#include "src/fs/block_store.h"
#include "src/fs/layout.h"
#include "src/hw/memory.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/trace.h"

namespace solros {

class NvmeBlockStore : public BlockStore {
 public:
  // Bounded resubmission of failed/timed-out command batches. NVMe reads
  // and writes are idempotent (same bytes to the same LBAs), so the whole
  // batch is simply reissued. Only consulted while fault injection is
  // armed; fault-free runs submit exactly once.
  struct RetryPolicy {
    int max_attempts = 3;              // total attempts including the first
    Nanos backoff = Microseconds(50);  // first retry delay; doubles per retry
  };

  // `cpu` is the processor that submits commands (the control-plane host
  // CPU in Solros; only it may touch the device, §4).
  NvmeBlockStore(NvmeDevice* nvme, Processor* cpu);

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Durability model. Off (default): the device is treated as
  // write-through — every acknowledged write is already stable, Flush() is
  // a free no-op, and the seed's behaviour and bench output are unchanged.
  // On (the journaled configurations): acknowledged writes sit in the
  // device's volatile write buffer until a real NVMe Flush command drains
  // it, so Flush() costs device time and is what the journal's barriers
  // ride on.
  void set_volatile_write_cache(bool on) { volatile_write_cache_ = on; }
  bool volatile_write_cache() const { return volatile_write_cache_; }

  uint32_t block_size() const override;
  uint64_t block_count() const override;

  Task<Status> Read(uint64_t lba, uint32_t nblocks,
                    std::span<uint8_t> out) override;
  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override;
  Task<Status> Flush() override;

  // Vectored byte-span I/O: every run becomes one NVMe command on its own
  // span, named as the submitting CPU's memory; the batch goes down in a
  // single SubmitWithRetry (one doorbell + one interrupt when `coalesce`).
  // Used by SolrosFs, by a buffer cache that runs without the I/O
  // scheduler, and (with the originating request's trace context `ctx`) by
  // the scheduler.
  Task<Status> ReadV(std::span<const BlockRun> runs, bool coalesce) override;
  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      bool coalesce) override;
  Task<Status> ReadV(std::span<const BlockRun> runs, bool coalesce,
                     TraceContext ctx);
  Task<Status> WriteV(std::span<const ConstBlockRun> runs, bool coalesce,
                      TraceContext ctx);

  // Zero-copy vectorized I/O: one (extent -> target sub-range) command per
  // extent; `coalesce` batches them under a single doorbell/interrupt.
  // `target.length` must equal the total extent bytes. `ctx` is the
  // originating request's trace context; the device batch span it causes
  // links back to it (untraced when zero).
  Task<Status> ReadExtents(const std::vector<FsExtent>& extents,
                           MemRef target, bool coalesce,
                           TraceContext ctx = {});
  Task<Status> WriteExtents(const std::vector<FsExtent>& extents,
                            MemRef source, bool coalesce,
                            TraceContext ctx = {});

  NvmeDevice* device() { return nvme_; }

 private:
  // One command per run, each on its run's span (Run is BlockRun or
  // ConstBlockRun).
  template <typename Run>
  Task<Status> SubmitRuns(NvmeCommand::Op op, std::span<const Run> runs,
                          bool coalesce, TraceContext ctx);
  Task<Status> SubmitExtents(const std::vector<FsExtent>& extents,
                             MemRef memory, NvmeCommand::Op op, bool coalesce,
                             TraceContext ctx);
  // Submits `commands`, resubmitting the whole batch per RetryPolicy on
  // timeout or I/O error while faults are armed. A resubmission flags the
  // request's trace `ctx` for tail sampling.
  Task<Status> SubmitWithRetry(std::vector<NvmeCommand> commands,
                               bool coalesce, TraceContext ctx = {});

  NvmeDevice* nvme_;
  Processor* cpu_;
  RetryPolicy retry_;
  bool volatile_write_cache_ = false;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_NVME_BLOCK_STORE_H_
