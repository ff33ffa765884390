// Queue-level NVMe SSD model (Intel 750 calibration).
//
// Mirrors the mechanisms the paper's file-system service manipulates (§5):
//
//  * commands carry a *target memory reference* in any device's memory —
//    setting it to co-processor memory is exactly the paper's P2P path
//    (the SSD's DMA engine reads/writes Phi memory through the system-
//    mapped PCIe window); setting it to host memory is the buffered path;
//  * a doorbell write is an MMIO transaction charged to the submitting CPU;
//  * command completion raises an interrupt charged to the host CPU;
//  * an I/O vector (the p2p_read/p2p_write ioctl of §5) executes N commands
//    with ONE doorbell and ONE interrupt — the coalescing that lets Solros
//    beat even the host at large block sizes (Fig. 1(a));
//  * flash has separate read/write bandwidth ceilings (2.4 / 1.2 GB/s) and
//    per-command access latency; data transfers move real bytes over the
//    PCIe fabric, so cross-NUMA P2P is naturally throttled by the fabric.
#ifndef SOLROS_SRC_NVME_NVME_DEVICE_H_
#define SOLROS_SRC_NVME_NVME_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hw/dma.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {

struct NvmeCommand {
  // kFlush drains the device's volatile write buffer to stable flash; it
  // carries no LBA range or target (nblocks must be 0, target unset).
  enum class Op : uint8_t { kRead, kWrite, kFlush };
  Op op = Op::kRead;
  uint64_t lba = 0;       // logical block address
  uint32_t nblocks = 0;   // in device blocks
  MemRef target;          // length must equal nblocks * block_size
};

class NvmeDevice {
 public:
  // `interrupt_cpu` is the processor that services this device's MSI-X
  // interrupts (the host in every Solros configuration — only the
  // control-plane OS touches I/O devices, §4).
  NvmeDevice(Simulator* sim, PcieFabric* fabric, const HwParams& params,
             DeviceId self, uint64_t capacity_bytes,
             Processor* interrupt_cpu);

  uint32_t block_size() const { return params_.nvme_block_size; }
  uint64_t block_count() const {
    return flash_.size() / params_.nvme_block_size;
  }
  DeviceId device_id() const { return self_; }

  // Executes a batch of commands. With `coalesce` set, the batch costs one
  // doorbell (on `submitter_cpu`) and one completion interrupt; otherwise
  // every command pays both (the stock driver behaviour). Returns the first
  // error, kOk otherwise. Commands within a batch execute concurrently,
  // subject to queue depth and flash bandwidth. `ctx` is the originating
  // request's trace context: the batch span becomes its child and each
  // per-command span a grandchild (untraced when zero).
  Task<Status> Submit(std::vector<NvmeCommand> commands, bool coalesce,
                      Processor* submitter_cpu, TraceContext ctx = {});

  // Single-command convenience wrapper (always doorbell + interrupt).
  Task<Status> SubmitOne(NvmeCommand command, Processor* submitter_cpu);

  // Zero-cost flash access for test setup and mkfs bootstrap.
  std::span<uint8_t> RawFlash() { return flash_.Span(0, flash_.size()); }

  // Crash model. While the `nvme.powercut` / `nvme.tornwrite` fault points
  // are armed, every write records an undo image of the flash bytes it is
  // about to overwrite; a Flush clears the undo log (the write buffer
  // reached stable media). When a cut fires, the undo log is rolled back —
  // un-flushed writes vanish, exactly the volatile-write-cache loss a real
  // power failure causes — and the device rejects all further commands
  // until PowerCycle(). A torn-write cut additionally persists a
  // deterministic sector-aligned prefix of the interrupted command.
  bool crashed() const { return crashed_; }
  // "Plug it back in": clears the crashed state (flash keeps whatever
  // survived the cut). The mount-time journal replay runs after this.
  void PowerCycle() {
    crashed_ = false;
    undo_.clear();
  }

  uint64_t doorbells_rung() const { return doorbells_; }
  uint64_t interrupts_raised() const { return interrupts_; }
  uint64_t commands_completed() const { return commands_completed_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  // One undo record per write issued since the last Flush while a crash
  // fault is armed: the pre-image of the overwritten flash range.
  struct UndoEntry {
    uint64_t flash_off = 0;
    std::vector<uint8_t> pre;
  };

  Task<Status> Execute(NvmeCommand command, TraceContext ctx = {});
  Status Validate(const NvmeCommand& command) const;
  // Rolls back every write since the last Flush (reverse order) and marks
  // the device crashed.
  void LosePower();

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  DeviceId self_;
  Processor* interrupt_cpu_;
  // The flash image, tagged with this device: never-written blocks read as
  // zeros and cost no host memory (see DeviceBuffer).
  DeviceBuffer flash_;

  Semaphore queue_slots_;
  // USE telemetry ("<device name>", e.g. "nvme0"): depth counts commands
  // from arrival (including queue-slot waiters) to completion.
  UseSeries* use_ = nullptr;

  uint64_t doorbells_ = 0;
  uint64_t interrupts_ = 0;
  uint64_t commands_completed_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;

  bool crashed_ = false;
  std::vector<UndoEntry> undo_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NVME_NVME_DEVICE_H_
