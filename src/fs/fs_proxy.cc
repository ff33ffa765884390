#include "src/fs/fs_proxy.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/retry.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// How many leading blocks of a range the cache-hit probe inspects.
constexpr uint64_t kCacheProbeBlocks = 8;

// Consecutive faulted P2P transfers before the P2P path goes on cooldown,
// and how many subsequent requests route straight to buffered I/O.
constexpr uint32_t kP2pFaultStreakLimit = 3;
constexpr uint64_t kP2pCooldownRequests = 16;

// Max per-(coprocessor, file) sequential-stream entries the proxy tracks.
constexpr size_t kMaxReadStreams = 1024;

// Sequential read-ahead: a detected stream opens at kReadaheadMinBlocks and
// doubles per sequential hit up to kReadaheadMaxBlocks, faulted as one
// vectored NVMe read.
constexpr uint32_t kReadaheadMinBlocks = 8;
constexpr uint32_t kReadaheadMaxBlocks = 64;
// Sequential reads at or below this size are steered to the buffered path
// so the readahead window batches their device I/O; larger sequential reads
// keep P2P's zero-copy advantage.
constexpr uint64_t kReadaheadP2pCutover = 128 * 1024;

}  // namespace

FsProxy::FsProxy(Simulator* sim, PcieFabric* fabric, const HwParams& params,
                 Processor* host_cpu, NvmeBlockStore* store, SolrosFs* fs,
                 const Options& options, const FsShardContext& shard)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      host_cpu_(host_cpu),
      store_(store),
      fs_(fs),
      options_(options),
      shard_(shard),
      host_dma_(sim, fabric, params, host_cpu->device()),
      iosched_(sim, store,
               IoSchedulerOptions{
                   .coalesce_nvme = options.coalesce_nvme,
                   .telemetry_suffix =
                       ShardLabel("", shard.shard_id, shard.shard_count)}),
      bounce_pool_(host_cpu->device()) {
  if (sim->telemetry() != nullptr) {
    use_ = sim->telemetry()->GetSeries(
        ShardLabel("fs.proxy", shard_.shard_id, shard_.shard_count));
  }
  if (options_.cache_blocks > 0) {
    // The arena lives on the shard core's socket, so a hit never crosses
    // QPI to reach its staging pages.
    cache_ = std::make_unique<BufferCache>(store, host_cpu->device(),
                                           options_.cache_blocks);
    cache_->set_io_scheduler(&iosched_);
    // Per-shard suffix, as on the scheduler's class series.
    cache_->set_telemetry(
        sim, "fs.cache" + ShardLabel("", shard_.shard_id, shard_.shard_count));
  }
  shard_.coordinator.Register(this);
}

void FsProxy::Serve(SimRing* request_ring, SimRing* response_ring) {
  // One server (and pump) per data-plane ring pair; the proxy state they
  // share is what makes Solros "shared-something" (§4).
  servers_.push_back(std::make_unique<RpcServer<FsRequest, FsResponse>>(
      sim_, request_ring, response_ring,
      [this](FsRequest request) { return Handle(std::move(request)); }));
  servers_.back()->Start();
}

Task<FsResponse> FsProxy::Handle(FsRequest request) {
  ++stats_.requests;
  static Counter* const requests =
      MetricRegistry::Default().GetCounter("fs.proxy.requests");
  static LatencyHistogram* const service_ns =
      MetricRegistry::Default().GetHistogram("fs.proxy.service_ns");
  requests->Increment();
  SimTime t0 = sim_->now();
  if (use_ != nullptr) {
    use_->QueueDelta(t0, +1);
  }
  // The service span hangs off the stub's root span via the wire context.
  ScopedSpan span(sim_, "proxy", "fs.proxy.service",
                  TraceContext{request.trace_id, request.parent_span});
  TraceContext ctx = span.context();
  {
    // Per-request proxy CPU: RPC handling plus the full file-system stack,
    // both on fast host cores (this is the asymmetry Solros exploits).
    ScopedSpan cpu(sim_, "proxy", "fs.stage.proxy_cpu", ctx);
    co_await host_cpu_->Compute(params_.fs_proxy_cpu +
                                params_.fs_full_call_cpu);
  }
  // Each op fills `response` and returns its status; a failure replies
  // with the error alone.
  FsResponse response;
  Status status;
  switch (request.op) {
    case FsOp::kRead:
      status = co_await HandleRead(request, ctx, &response);
      break;
    case FsOp::kWrite:
      status = co_await HandleWrite(request, ctx, &response);
      break;
    case FsOp::kReaddir:
      status = co_await HandleReaddir(request, ctx, &response);
      break;
    default:
      status = co_await HandleMeta(request, &response);
      break;
  }
  if (!status.ok()) {
    response = FsResponse{};
    response.error = status.code();
  }
  service_ns->Record(sim_->now() - t0);
  if (use_ != nullptr) {
    use_->QueueDelta(sim_->now(), -1);
    use_->CompleteOp(sim_->now(), 0);
  }
  if (IsSystemError(response.error)) {
    if (use_ != nullptr) {
      use_->AddError(sim_->now());
    }
    // Under tail-based sampling, errored traces are always retained.
    FlagTraceError(sim_, request.trace_id);
  }
  co_return response;
}

Task<Status> FsProxy::Prefetch(const std::string& path) {
  if (cache_ == nullptr) {
    co_return FailedPreconditionError("no buffer cache configured");
  }
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, co_await fs_->Lookup(path));
  SOLROS_CO_ASSIGN_OR_RETURN(FileStat stat, co_await fs_->StatInode(ino));
  // Stage the file stripe by stripe into the cache of the shard that owns
  // each stripe, through the same guarded fill as a buffered read. Prefetch
  // is speculation: readahead class, so it never queues ahead of a demand
  // miss.
  const std::vector<FsProxy*>& shards = shard_.coordinator.shards();
  const int shard_count = shard_.shard_count;
  for (uint64_t offset = 0; offset < stat.size;) {
    uint64_t end = std::min(OwnedRangeEnd(offset, kFsBlockSize, shard_count),
                            stat.size);
    FsProxy* owner = shards[static_cast<size_t>(
        ShardOfFileRange(ino, offset, kFsBlockSize, shard_count))];
    uint64_t blocks = (end - offset + kFsBlockSize - 1) / kFsBlockSize;
    BouncePool::Lease bounce = bounce_pool_.Take(blocks * kFsBlockSize);
    SOLROS_CO_RETURN_IF_ERROR(co_await StageBlocks(
        owner, ino, offset / kFsBlockSize, blocks, end - offset,
        {bounce.data(), blocks * kFsBlockSize}, IoClass::kReadahead));
    offset = end;
  }
  co_return OkStatus();
}

Task<Status> FsProxy::HandleMeta(const FsRequest& request,
                                 FsResponse* response) {
  switch (request.op) {
    case FsOp::kOpen: {
      SOLROS_CO_ASSIGN_OR_RETURN(response->value,
                                 co_await fs_->Lookup(request.Path()));
      co_return OkStatus();
    }
    case FsOp::kCreate: {
      SOLROS_CO_ASSIGN_OR_RETURN(response->value,
                                 co_await fs_->Create(request.Path()));
      co_return OkStatus();
    }
    case FsOp::kStat: {
      // NOTE: never co_await inside a conditional expression — GCC 12
      // miscompiles the temporary lifetimes (double-destroy in the frame).
      Result<FileStat> stat = Status(ErrorCode::kInternal);
      if (request.path[0] != '\0') {
        stat = co_await fs_->Stat(request.Path());
      } else {
        stat = co_await fs_->StatInode(request.ino);
      }
      SOLROS_CO_ASSIGN_OR_RETURN(response->stat, std::move(stat));
      response->value = response->stat.size;
      co_return OkStatus();
    }
    case FsOp::kUnlink: {
      const std::string path = request.Path();
      // Only a cache has copies of the file's blocks to drop; inode 0 is
      // no file, so FreeBlocks drops nothing.
      Result<uint64_t> ino = ErrorCode::kNotFound;
      if (cache_ != nullptr) {
        ino = co_await fs_->Lookup(path);
      }
      co_return co_await FreeBlocks(ino.value_or(0), 0, fs_->Unlink(path));
    }
    case FsOp::kMkdir:
      co_return co_await fs_->Mkdir(request.Path());
    case FsOp::kRmdir:
      co_return co_await fs_->Rmdir(request.Path());
    case FsOp::kRename:
      co_return co_await fs_->Rename(request.Path(), request.Path2());
    case FsOp::kTruncate:
      // A partially kept last block stays cached with its freed tail zeroed.
      co_return co_await FreeBlocks(request.ino, request.length,
                                    fs_->Truncate(request.ino, request.length));
    case FsOp::kFsync:
      co_return co_await FsyncBarrier();
    default:
      co_return NotSupportedError("bad fs op");
  }
}

void FsProxy::NoteP2pFault(uint64_t* degraded, TraceContext ctx) {
  ++*degraded;
  FlagTraceError(sim_, ctx.trace_id);
  static Counter* const degraded_total =
      MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded");
  degraded_total->Increment();
  if (++p2p_fault_streak_ >= kP2pFaultStreakLimit) {
    p2p_fault_streak_ = 0;
    p2p_cooldown_until_ = stats_.requests + kP2pCooldownRequests;
    static Counter* const cooldowns =
        MetricRegistry::Default().GetCounter("fs.proxy.p2p_cooldowns");
    cooldowns->Increment();
    TRACE_INSTANT(sim_, "proxy", "fs.proxy.p2p_cooldown");
  }
  TRACE_INSTANT(sim_, "proxy", "fs.proxy.p2p_degraded");
}

uint32_t FsProxy::UpdateReadStream(uint32_t client, uint64_t ino,
                                   uint64_t offset, uint64_t length) {
  StreamKey key{client, ino};
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    if (streams_.size() >= kMaxReadStreams) {
      streams_.erase(stream_lru_.back());
      stream_lru_.pop_back();
    }
    stream_lru_.push_front(key);
    it = streams_.emplace(key, ReadStream{}).first;
    it->second.lru_it = stream_lru_.begin();
  } else {
    stream_lru_.splice(stream_lru_.begin(), stream_lru_, it->second.lru_it);
  }
  ReadStream& stream = it->second;
  // A brand-new stream has next_offset == 0, so a file read starting at
  // offset 0 opens the window immediately.
  if (offset == stream.next_offset) {
    stream.window_blocks =
        stream.window_blocks == 0
            ? kReadaheadMinBlocks
            : std::min(stream.window_blocks * 2, kReadaheadMaxBlocks);
  } else {
    stream.window_blocks = 0;  // non-sequential: close the window
  }
  stream.next_offset = offset + length;
  return stream.window_blocks;
}

bool FsProxy::OwnsRange(uint64_t ino, uint64_t offset,
                        uint64_t length) const {
  const int shards = shard_.shard_count;
  return ShardOfFileRange(ino, offset, kFsBlockSize, shards) ==
             shard_.shard_id &&
         length <= OwnedRangeEnd(offset, kFsBlockSize, shards) - offset;
}

Task<Status> FsProxy::FlushExtents(const std::vector<FsExtent>& extents) {
  if (cache_ == nullptr) {
    co_return OkStatus();
  }
  for (const FsExtent& e : extents) {
    SOLROS_CO_RETURN_IF_ERROR(co_await cache_->FlushRange(e.start, e.len));
  }
  co_return OkStatus();
}

Task<void> FsProxy::DropExtents(const std::vector<FsExtent>& extents) {
  if (cache_ == nullptr) {
    co_return;
  }
  for (const FsExtent& e : extents) {
    co_await cache_->DiscardRange(e.start, e.len);
  }
}

Task<Status> FsProxy::FreeBlocks(uint64_t ino, uint64_t from,
                                 Task<Status> free_op) {
  // The blocks the free returns: those of the file from byte `from` on.
  std::vector<FsExtent> freed;
  if (cache_ != nullptr) {
    auto stat = co_await fs_->StatInode(ino);
    if (stat.ok() && from < stat->size) {
      auto extents = co_await fs_->Fiemap(ino, from, stat->size - from);
      if (extents.ok()) {
        freed = std::move(*extents);
      }
    }
  }
  // Before the free: drop every shard's copies. No cross-core charge,
  // matching a store to a shared invalidation queue; the only wait is for
  // write-backs already in flight.
  const uint32_t keep_bytes = static_cast<uint32_t>(from % kFsBlockSize);
  std::vector<FsExtent> dropped = freed;
  const bool keep_head = keep_bytes > 0 && !dropped.empty();
  if (keep_head) {
    ++dropped.front().start;
    --dropped.front().len;
  }
  for (FsProxy* peer : shard_.coordinator.shards()) {
    if (keep_head && peer->cache_ != nullptr) {
      peer->cache_->ZeroFrom(freed.front().start, keep_bytes);
    }
    co_await peer->DropExtents(dropped);
  }
  Status status = co_await std::move(free_op);
  // After the free: drop the clean copies a fill that read the blocks
  // meanwhile may have left. A dirty copy is already the next owner's.
  for (FsProxy* peer : shard_.coordinator.shards()) {
    if (peer->cache_ == nullptr) {
      continue;
    }
    for (const FsExtent& e : freed) {
      peer->cache_->InvalidateCleanRange(e.start, e.len);
    }
  }
  co_return status;
}

Task<Status> FsProxy::FsyncBarrier() {
  const std::vector<FsProxy*>& shards = shard_.coordinator.shards();
  // Write-through store: acked writes are already stable, so the
  // historical order (metadata first, then cache write-back) is kept
  // bit-for-bit for the seed configurations.
  const bool write_through = !store_->volatile_write_cache();
  if (write_through) {
    SOLROS_CO_RETURN_IF_ERROR(co_await fs_->Sync());
  }
  // Every shard's dirty pages go to the device. Under a volatile write
  // cache this comes first (the durable order, shard-wide): then they are
  // fenced behind every shard's in-flight scheduler batches with ordered
  // barriers, and only then does metadata commit — the journal commit's
  // device flushes make the already-completed data writes stable, so an
  // acked fsync survives a power cut no matter which shard's cache held
  // the pages.
  for (FsProxy* peer : shards) {
    if (peer->cache_ != nullptr) {
      SOLROS_CO_RETURN_IF_ERROR(co_await peer->cache_->Flush());
    }
  }
  if (write_through) {
    co_return OkStatus();
  }
  for (FsProxy* peer : shards) {
    SOLROS_CO_RETURN_IF_ERROR(co_await peer->iosched_.Flush());
  }
  // The journal commit runs via the designated barrier shard so
  // ordered-class flushes serialize at one place and the journal keeps
  // one global commit order. A caller on another shard pays the
  // cross-shard handoff on the barrier shard's core.
  FsProxy* barrier = shard_.coordinator.barrier_shard();
  if (barrier != this) {
    co_await barrier->host_cpu_->Compute(params_.fs_proxy_cpu);
  }
  co_return co_await fs_->Sync();
}

Task<bool> FsProxy::ShouldUseP2p(const FsRequest& request, uint64_t length,
                                 uint32_t readahead_window) {
  if (!options_.allow_p2p) {
    co_return false;
  }
  // Detected sequential stream under the cutover: go buffered so the
  // readahead window turns its many small reads into few vectored ones.
  if (readahead_window > 0 && length <= kReadaheadP2pCutover) {
    static Counter* const steered =
        MetricRegistry::Default().GetCounter("fs.proxy.readahead_steered");
    steered->Increment();
    co_return false;
  }
  // A streak of faulted P2P transfers parks the path for a while.
  if (stats_.requests < p2p_cooldown_until_) {
    static Counter* const skips =
        MetricRegistry::Default().GetCounter("fs.proxy.p2p_cooldown_skips");
    skips->Increment();
    co_return false;
  }
  // O_BUFFER forces buffered mode.
  if ((request.flags & kFsFlagBuffered) != 0) {
    co_return false;
  }
  // Host-memory targets have no P2P meaning.
  if (fabric_->TypeOf(request.memory.device()) == DeviceType::kHost) {
    co_return false;
  }
  // Crossing a NUMA boundary collapses P2P throughput (Fig. 1(a)).
  if (fabric_->CrossesNuma(store_->device()->device_id(),
                           request.memory.device())) {
    co_return false;
  }
  // Unaligned transfers take the buffered path (P2P is block-granular).
  if (request.offset % kFsBlockSize != 0 || length % kFsBlockSize != 0) {
    co_return false;
  }
  // Cache-hot data is served from the host cache. Probe the first few
  // blocks of the range.
  if (cache_ != nullptr) {
    auto extents = co_await fs_->Fiemap(
        request.ino, request.offset,
        std::min<uint64_t>(length, kCacheProbeBlocks * kFsBlockSize));
    if (extents.ok()) {
      for (const FsExtent& e : *extents) {
        for (uint64_t b = 0; b < e.len; ++b) {
          if (cache_->Contains(e.start + b)) {
            co_return false;
          }
        }
      }
    }
  }
  co_return true;
}

Task<Status> FsProxy::HandleRead(const FsRequest& request, TraceContext ctx,
                                 FsResponse* response) {
  if (!OwnsRange(request.ino, request.offset,
                 std::min(request.length, request.memory.length))) {
    co_return InvalidArgumentError("read outside shard range");
  }
  SOLROS_CO_ASSIGN_OR_RETURN(FileStat stat,
                             co_await fs_->StatInode(request.ino));
  const uint64_t length =
      request.offset >= stat.size
          ? 0
          : std::min({request.length, request.memory.length,
                      stat.size - request.offset});
  response->value = length;
  if (length == 0) {
    co_return OkStatus();
  }

  // Track the sequential stream regardless of the path taken: the window
  // state both steers the path decision and sizes the staged readahead.
  uint32_t ra_blocks = 0;
  if (cache_ != nullptr) {
    ra_blocks =
        UpdateReadStream(request.client, request.ino, request.offset, length);
  }

  const bool p2p = co_await ShouldUseP2p(request, length, ra_blocks);
  if (p2p) {
    ++stats_.p2p_reads;
    static Counter* const p2p_reads =
        MetricRegistry::Default().GetCounter("fs.proxy.p2p_reads");
    p2p_reads->Increment();
    ScopedSpan data(sim_, "proxy", "fs.data.p2p", ctx);
    SOLROS_CO_ASSIGN_OR_RETURN(
        std::vector<FsExtent> extents,
        co_await fs_->Fiemap(request.ino, request.offset, length));
    // P2P bypasses the cache; push this shard's dirty pages of the range
    // (the only cached copies) first so the device read returns the newest
    // bytes.
    SOLROS_CO_RETURN_IF_ERROR(co_await FlushExtents(extents));
    Status status = co_await store_->ReadExtents(
        extents, request.memory.Sub(0, length), options_.coalesce_nvme,
        data.context());
    if (status.ok()) {
      NoteP2pSuccess();
      co_return status;
    }
    if (!IsTransientError(status.code())) {
      co_return status;
    }
    // Degrade: re-serve the whole range host-staged. The buffered path
    // rewrites every target byte, so a partially-landed P2P vector can
    // never leak through as silent corruption.
    NoteP2pFault(&stats_.degraded_reads, ctx);
  }
  ++stats_.buffered_reads;
  static Counter* const buffered_reads =
      MetricRegistry::Default().GetCounter("fs.proxy.buffered_reads");
  buffered_reads->Increment();
  ScopedSpan data(sim_, "proxy", "fs.data.buffered", ctx);
  // Stage the byte range in a host bounce buffer through the cache, then
  // move the requested bytes to the target. A readahead window extends the
  // staged range past the request so a miss run spanning the boundary
  // fetches the next `ra_blocks` speculatively in the same device read.
  const uint64_t first_block = request.offset / kFsBlockSize;
  const uint64_t last_block =
      (request.offset + length + kFsBlockSize - 1) / kFsBlockSize;
  const uint64_t nblocks = last_block - first_block;
  uint64_t stage_blocks = nblocks;
  if (ra_blocks > 0) {
    uint64_t file_blocks = (stat.size + kFsBlockSize - 1) / kFsBlockSize;
    uint64_t headroom =
        file_blocks > last_block ? file_blocks - last_block : 0;
    stage_blocks += std::min<uint64_t>(ra_blocks, headroom);
  }
  // Clip speculation at the end of this shard's stripe: blocks past it
  // belong to another shard, whose own stream detector readaheads them
  // into ITS cache.
  uint64_t owned_end =
      OwnedRangeEnd(request.offset, kFsBlockSize, shard_.shard_count);
  stage_blocks = std::min(stage_blocks, owned_end / kFsBlockSize - first_block);
  if (stage_blocks > nblocks) {
    TRACE_INSTANT(sim_, "proxy", "fs.proxy.readahead");
  }
  BouncePool::Lease bounce = bounce_pool_.Take(stage_blocks * kFsBlockSize);
  SOLROS_CO_RETURN_IF_ERROR(co_await StageBlocks(
      this, request.ino, first_block, nblocks,
      stat.size - first_block * kFsBlockSize,
      {bounce.data(), stage_blocks * kFsBlockSize}, IoClass::kDemand,
      data.context()));
  co_return co_await MoveBytes(
      request.memory.Sub(0, length),
      bounce.Ref(request.offset % kFsBlockSize, length), data.context());
}

Task<Status> FsProxy::HandleWrite(const FsRequest& request, TraceContext ctx,
                                  FsResponse* response) {
  const uint64_t length = std::min(request.length, request.memory.length);
  if (!OwnsRange(request.ino, request.offset, length)) {
    co_return InvalidArgumentError("write outside shard range");
  }
  response->value = length;
  if (length == 0) {
    co_return OkStatus();
  }
  const bool p2p = co_await ShouldUseP2p(request, length);
  if (p2p) {
    auto extents = co_await fs_->PrepareWrite(request.ino, request.offset,
                                              length);
    if (extents.ok()) {
      ++stats_.p2p_writes;
      static Counter* const p2p_writes =
          MetricRegistry::Default().GetCounter("fs.proxy.p2p_writes");
      p2p_writes->Increment();
      ScopedSpan data(sim_, "proxy", "fs.data.p2p", ctx);
      // The data on disk is about to change under this shard's cached
      // copies — drop them.
      co_await DropExtents(*extents);
      Status status = co_await store_->WriteExtents(
          *extents, request.memory.Sub(0, length), options_.coalesce_nvme,
          data.context());
      // Again once the bytes landed: a fill that read them meanwhile holds
      // the old ones.
      co_await DropExtents(*extents);
      if (status.ok()) {
        NoteP2pSuccess();
        co_return status;
      }
      if (!IsTransientError(status.code())) {
        co_return status;
      }
      // Degrade: rewrite the whole range through the buffered path. The
      // same bytes go to the same already-allocated blocks, so a partially
      // landed P2P vector is simply overwritten.
      NoteP2pFault(&stats_.degraded_writes, ctx);
    } else if (extents.code() != ErrorCode::kFailedPrecondition) {
      co_return extents.status();
    }
    // Gap past EOF (or a faulted P2P write): fall through to buffered.
  }
  ++stats_.buffered_writes;
  static Counter* const buffered_writes =
      MetricRegistry::Default().GetCounter("fs.proxy.buffered_writes");
  buffered_writes->Increment();
  ScopedSpan data(sim_, "proxy", "fs.data.buffered", ctx);
  co_return co_await BufferedWrite(request.ino, request.offset, length,
                                   request.memory, data.context());
}

Task<Status> FsProxy::MoveBytes(MemRef dst, MemRef src, TraceContext ctx) {
  if (dst.device() == src.device()) {
    std::memcpy(dst.span().data(), src.span().data(), src.length);
    co_await Delay(TransferTime(src.length, params_.host_mem_bw));
    co_return OkStatus();
  }
  // Any failed copy is reissued; the first backoff is the engine's set-up
  // time.
  co_return co_await Retry(
      RetryPolicy{.max_attempts = 3, .backoff = params_.dma_init_host},
      /*timeout=*/0, {"fs.proxy.dma_retries", "proxy", "fs.proxy.dma_retry"},
      ctx.trace_id, [&](Nanos) { return host_dma_.Copy(dst, src, ctx); },
      [](const Status& status) { return !status.ok(); });
}

FsProxy::BouncePool::Lease FsProxy::BouncePool::Take(uint64_t bytes) {
  std::unique_ptr<DeviceBuffer> buffer;
  if (!spares_.empty()) {
    buffer = std::move(spares_.back());
    spares_.pop_back();
  }
  if (buffer == nullptr || buffer->size() < bytes) {
    buffer = std::make_unique<DeviceBuffer>(device_, bytes);
  } else {
    // Past `bytes` stays poisoned, as past the end of a fresh buffer.
    ASAN_UNPOISON_MEMORY_REGION(buffer->data(), bytes);
  }
  return Lease(this, std::move(buffer));
}

void FsProxy::BouncePool::Return(std::unique_ptr<DeviceBuffer> buffer) {
  ASAN_POISON_MEMORY_REGION(buffer->data(), buffer->size());
  spares_.push_back(std::move(buffer));
}

Task<Status> FsProxy::StageBlocks(FsProxy* owner, uint64_t ino,
                                  uint64_t first_block, uint64_t demand_blocks,
                                  uint64_t valid_bytes, std::span<uint8_t> out,
                                  IoClass cls, TraceContext ctx) {
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::vector<FsExtent> extents,
      co_await fs_->Fiemap(ino, first_block * kFsBlockSize, out.size()));
  // A truncate that lands between the caller's stat and this Fiemap leaves
  // the tail of the staged range unmapped. It reads as zeros, not as the
  // leased bytes.
  uint64_t mapped_bytes = 0;
  for (const FsExtent& e : extents) {
    mapped_bytes += e.len * kFsBlockSize;
  }
  std::memset(out.data() + mapped_bytes, 0, out.size() - mapped_bytes);

  if (owner->cache_ == nullptr) {
    // No cache (ablation A3): one read per extent.
    uint64_t cursor = 0;
    for (const FsExtent& e : extents) {
      SOLROS_CO_RETURN_IF_ERROR(co_await owner->iosched_.Read(
          e.start, e.len, out.subspan(cursor, e.len * kFsBlockSize), cls,
          ctx));
      cursor += e.len * kFsBlockSize;
    }
    co_return OkStatus();
  }
  // A demand stage runs under a cache span (child of the buffered data
  // span) whose args record the per-request outcome: demand blocks served
  // from cache, demand blocks fetched from the device, and speculative
  // readahead blocks piggybacked onto those fetches. The span closes
  // before the byte move: the move is not cache time. Prefetch records
  // none.
  ScopedSpan cache_span(cls == IoClass::kDemand ? sim_ : nullptr, "cache",
                        "cache.read", ctx);
  SOLROS_CO_ASSIGN_OR_RETURN(
      BufferCache::StageCounts staged,
      co_await owner->cache_->Stage(extents, demand_blocks, valid_bytes, out,
                                    cls, cache_span.context()));
  cache_span.AddArg("hits", staged.hits);
  cache_span.AddArg("misses", staged.misses);
  cache_span.AddArg("readahead", staged.readahead);
  co_return OkStatus();
}

Task<Status> FsProxy::BufferedWrite(uint64_t ino, uint64_t offset,
                                    uint64_t length, MemRef source,
                                    TraceContext ctx) {
  // Pull the data to a host bounce buffer with one DMA, then write through
  // the file system (which handles allocation, gaps, and partial blocks).
  BouncePool::Lease bounce = bounce_pool_.Take(length);
  SOLROS_CO_RETURN_IF_ERROR(
      co_await MoveBytes(bounce.Ref(0, length), source.Sub(0, length), ctx));
  // Write-back absorption: an aligned write becomes dirty cache pages with
  // no device I/O at all — eviction and Flush() push them out later as
  // coalesced vectors. PrepareWrite allocates blocks and updates metadata
  // exactly as the P2P write path does.
  if (cache_ != nullptr && offset % kFsBlockSize == 0 &&
      length % kFsBlockSize == 0) {
    auto extents = co_await fs_->PrepareWrite(ino, offset, length);
    if (extents.ok()) {
      static Counter* const absorbed =
          MetricRegistry::Default().GetCounter("fs.proxy.writeback_absorbed");
      absorbed->Increment(length / kFsBlockSize);
      ScopedSpan cache_span(sim_, "cache", "cache.write", ctx);
      cache_span.AddArg("absorbed", length / kFsBlockSize);
      uint64_t cursor = 0;
      for (const FsExtent& e : *extents) {
        for (uint64_t b = 0; b < e.len; ++b) {
          SOLROS_CO_RETURN_IF_ERROR(co_await cache_->InsertDirty(
              e.start + b,
              {bounce.data() + (cursor + b) * kFsBlockSize, kFsBlockSize}));
        }
        cursor += e.len;
      }
      co_return OkStatus();
    }
    if (extents.code() != ErrorCode::kFailedPrecondition) {
      co_return extents.status();
    }
    // Gap past EOF: fall through to the write-through path below.
  }
  // The write-through path read-modify-writes partial blocks from the
  // device; push this shard's overlapping dirty pages out first so the RMW
  // sees the newest bytes. Skip the extent walk when the cache holds no
  // dirty pages at all (the common case stays Fiemap-free).
  if (cache_ != nullptr &&
      (cache_->dirty_pages() > 0 || cache_->writeback_in_flight())) {
    auto dirty_extents = co_await fs_->Fiemap(ino, offset, length);
    if (dirty_extents.ok()) {
      SOLROS_CO_RETURN_IF_ERROR(co_await FlushExtents(*dirty_extents));
    }
  }
  SOLROS_CO_ASSIGN_OR_RETURN(
      uint64_t written,
      co_await fs_->WriteAt(ino, offset,
                            {bounce.data(), static_cast<size_t>(length)}));
  if (written != length) {
    co_return IoError("short write");
  }
  // Keep the cache coherent with the freshly written blocks.
  if (cache_ != nullptr) {
    auto extents = co_await fs_->Fiemap(ino, offset, length);
    if (extents.ok()) {
      co_await DropExtents(*extents);
    }
  }
  co_return OkStatus();
}

Task<Status> FsProxy::HandleReaddir(const FsRequest& request,
                                    TraceContext ctx, FsResponse* response) {
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                             co_await fs_->Readdir(request.Path()));
  // Zero-copy: serialize Dirent rows into the caller's memory window.
  uint64_t max_rows = request.memory.length / sizeof(Dirent);
  uint64_t skip = request.offset;  // row offset for chunked listings
  uint64_t produced = 0;
  std::vector<uint8_t> staged;
  for (uint64_t i = skip; i < entries.size() && produced < max_rows; ++i) {
    const DirEntry& row = entries[i];
    Dirent ent;
    ent.ino = row.ino;
    ent.type = row.is_dir ? (kModeDir >> 12) : (kModeFile >> 12);
    ent.SetName(row.name);
    staged.resize(staged.size() + sizeof(Dirent));
    std::memcpy(staged.data() + produced * sizeof(Dirent), &ent,
                sizeof(Dirent));
    ++produced;
  }
  response->value = produced;
  if (staged.empty()) {
    co_return OkStatus();
  }
  co_return co_await MoveBytes(request.memory.Sub(0, staged.size()),
                               MemRef::On(host_cpu_->device(), staged), ctx);
}

}  // namespace solros
