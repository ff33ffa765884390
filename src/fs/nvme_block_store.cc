#include "src/fs/nvme_block_store.h"

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
  const BlockRun run{lba, nblocks, out};
  co_return co_await SubmitRuns(NvmeCommand::Op::kRead,
                                std::span<const BlockRun>(&run, 1),
                                /*coalesce=*/false, {});
}

Task<Status> NvmeBlockStore::Write(uint64_t lba, uint32_t nblocks,
                                   std::span<const uint8_t> in) {
  const ConstBlockRun run{lba, nblocks, in};
  co_return co_await SubmitRuns(NvmeCommand::Op::kWrite,
                                std::span<const ConstBlockRun>(&run, 1),
                                /*coalesce=*/false, {});
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
  return ReadV(runs, coalesce, TraceContext{});
}

Task<Status> NvmeBlockStore::WriteV(std::span<const ConstBlockRun> runs,
                                    bool coalesce) {
  return WriteV(runs, coalesce, TraceContext{});
}

Task<Status> NvmeBlockStore::ReadV(std::span<const BlockRun> runs,
                                   bool coalesce, TraceContext ctx) {
  return SubmitRuns(NvmeCommand::Op::kRead, runs, coalesce, ctx);
}

Task<Status> NvmeBlockStore::WriteV(std::span<const ConstBlockRun> runs,
                                    bool coalesce, TraceContext ctx) {
  return SubmitRuns(NvmeCommand::Op::kWrite, runs, coalesce, ctx);
}

template <typename Run>
Task<Status> NvmeBlockStore::SubmitRuns(NvmeCommand::Op op,
                                        std::span<const Run> runs,
                                        bool coalesce, TraceContext ctx) {
  if (runs.empty()) co_return OkStatus();
  std::vector<NvmeCommand> commands;
  commands.reserve(runs.size());
  for (const Run& run : runs) {
    const uint64_t bytes = uint64_t{run.nblocks} * block_size();
    if (run.data.size() < bytes) {
      co_return InvalidArgumentError("block run span too short");
    }
    // A write command only reads its memory, so naming a const source is
    // safe.
    std::span<uint8_t> data(const_cast<uint8_t*>(run.data.data()), bytes);
    commands.push_back(NvmeCommand{op, run.lba, run.nblocks,
                                   MemRef::On(cpu_->device(), data)});
  }
  co_return co_await SubmitWithRetry(std::move(commands), coalesce, ctx);
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
    FlagTraceError(sim, ctx.trace_id);
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
