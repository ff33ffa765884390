#include "src/fs/nvme_block_store.h"

#include <cstring>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {

NvmeBlockStore::NvmeBlockStore(NvmeDevice* nvme, Processor* cpu)
    : nvme_(nvme), cpu_(cpu) {
  CHECK(nvme != nullptr);
  CHECK(cpu != nullptr);
}

uint32_t NvmeBlockStore::block_size() const { return nvme_->block_size(); }
uint64_t NvmeBlockStore::block_count() const { return nvme_->block_count(); }

Task<Status> NvmeBlockStore::Read(uint64_t lba, uint32_t nblocks,
                                  std::span<uint8_t> out) {
  uint64_t bytes = uint64_t{nblocks} * block_size();
  if (out.size() < bytes) {
    co_return InvalidArgumentError("read span too short");
  }
  // Stage through host memory (the host FS page path).
  DeviceBuffer staging(cpu_->device(), bytes);
  NvmeCommand command{NvmeCommand::Op::kRead, lba, nblocks,
                      MemRef::Of(staging)};
  std::vector<NvmeCommand> commands(1, command);
  SOLROS_CO_RETURN_IF_ERROR(co_await SubmitWithRetry(std::move(commands),
                                                     /*coalesce=*/false));
  std::memcpy(out.data(), staging.data(), bytes);
  co_return OkStatus();
}

Task<Status> NvmeBlockStore::Write(uint64_t lba, uint32_t nblocks,
                                   std::span<const uint8_t> in) {
  uint64_t bytes = uint64_t{nblocks} * block_size();
  if (in.size() < bytes) {
    co_return InvalidArgumentError("write span too short");
  }
  DeviceBuffer staging(cpu_->device(), bytes);
  std::memcpy(staging.data(), in.data(), bytes);
  NvmeCommand command{NvmeCommand::Op::kWrite, lba, nblocks,
                      MemRef::Of(staging)};
  std::vector<NvmeCommand> commands(1, command);
  co_return co_await SubmitWithRetry(std::move(commands), /*coalesce=*/false);
}

Task<Status> NvmeBlockStore::Flush() {
  // Write-through model (the default): acked writes are already stable, so
  // the barrier is free — and the fault-free seed configurations keep
  // byte-identical bench output.
  if (!volatile_write_cache_) {
    co_return OkStatus();
  }
  NvmeCommand command{NvmeCommand::Op::kFlush, 0, 0, MemRef{}};
  std::vector<NvmeCommand> commands(1, command);
  co_return co_await SubmitWithRetry(std::move(commands), /*coalesce=*/false);
}

Task<Status> NvmeBlockStore::ReadV(std::span<const BlockRun> runs,
                                   bool coalesce) {
  if (runs.empty()) co_return OkStatus();
  uint64_t total = 0;
  for (const BlockRun& run : runs) {
    uint64_t bytes = uint64_t{run.nblocks} * block_size();
    if (run.data.size() < bytes) {
      co_return InvalidArgumentError("readv span too short");
    }
    total += bytes;
  }
  DeviceBuffer staging(cpu_->device(), total);
  std::vector<NvmeCommand> commands;
  commands.reserve(runs.size());
  uint64_t offset = 0;
  for (const BlockRun& run : runs) {
    uint64_t bytes = uint64_t{run.nblocks} * block_size();
    commands.push_back(NvmeCommand{NvmeCommand::Op::kRead, run.lba,
                                   run.nblocks,
                                   MemRef::Of(staging).Sub(offset, bytes)});
    offset += bytes;
  }
  SOLROS_CO_RETURN_IF_ERROR(
      co_await SubmitWithRetry(std::move(commands), coalesce));
  offset = 0;
  for (const BlockRun& run : runs) {
    uint64_t bytes = uint64_t{run.nblocks} * block_size();
    std::memcpy(run.data.data(), staging.data() + offset, bytes);
    offset += bytes;
  }
  co_return OkStatus();
}

Task<Status> NvmeBlockStore::WriteV(std::span<const ConstBlockRun> runs,
                                    bool coalesce) {
  if (runs.empty()) co_return OkStatus();
  uint64_t total = 0;
  for (const ConstBlockRun& run : runs) {
    uint64_t bytes = uint64_t{run.nblocks} * block_size();
    if (run.data.size() < bytes) {
      co_return InvalidArgumentError("writev span too short");
    }
    total += bytes;
  }
  DeviceBuffer staging(cpu_->device(), total);
  std::vector<NvmeCommand> commands;
  commands.reserve(runs.size());
  uint64_t offset = 0;
  for (const ConstBlockRun& run : runs) {
    uint64_t bytes = uint64_t{run.nblocks} * block_size();
    std::memcpy(staging.data() + offset, run.data.data(), bytes);
    commands.push_back(NvmeCommand{NvmeCommand::Op::kWrite, run.lba,
                                   run.nblocks,
                                   MemRef::Of(staging).Sub(offset, bytes)});
    offset += bytes;
  }
  co_return co_await SubmitWithRetry(std::move(commands), coalesce);
}

Task<Status> NvmeBlockStore::SubmitWithRetry(
    std::vector<NvmeCommand> commands, bool coalesce, TraceContext ctx) {
  // One attempt, no timers, when no faults are armed.
  const int attempts = Faults().any_armed() ? retry_.max_attempts : 1;
  Nanos backoff = retry_.backoff;
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = co_await nvme_->Submit(commands, coalesce, cpu_, ctx);
    const bool retryable = status.code() == ErrorCode::kTimedOut ||
                           status.code() == ErrorCode::kIoError;
    if (status.ok() || !retryable || attempt >= attempts) {
      co_return status;
    }
    static Counter* const retries =
        MetricRegistry::Default().GetCounter("nvme.store.retries");
    retries->Increment();
    Simulator* sim = co_await CurrentSimulator();
    TRACE_INSTANT(sim, "nvme", "nvme.store.retry");
    co_await Delay(backoff);
    backoff *= 2;
  }
}

Task<Status> NvmeBlockStore::SubmitExtents(
    const std::vector<FsExtent>& extents, MemRef memory, NvmeCommand::Op op,
    bool coalesce, TraceContext ctx) {
  uint64_t total = 0;
  for (const FsExtent& e : extents) {
    total += uint64_t{e.len} * block_size();
  }
  if (memory.length != total) {
    co_return InvalidArgumentError("extent/target length mismatch");
  }
  std::vector<NvmeCommand> commands;
  commands.reserve(extents.size());
  uint64_t offset = 0;
  for (const FsExtent& e : extents) {
    uint64_t bytes = uint64_t{e.len} * block_size();
    commands.push_back(
        NvmeCommand{op, e.start, e.len, memory.Sub(offset, bytes)});
    offset += bytes;
  }
  co_return co_await SubmitWithRetry(std::move(commands), coalesce, ctx);
}

Task<Status> NvmeBlockStore::ReadExtents(const std::vector<FsExtent>& extents,
                                         MemRef target, bool coalesce,
                                         TraceContext ctx) {
  co_return co_await SubmitExtents(extents, target, NvmeCommand::Op::kRead,
                                   coalesce, ctx);
}

Task<Status> NvmeBlockStore::WriteExtents(
    const std::vector<FsExtent>& extents, MemRef source, bool coalesce,
    TraceContext ctx) {
  co_return co_await SubmitExtents(extents, source, NvmeCommand::Op::kWrite,
                                   coalesce, ctx);
}

}  // namespace solros
