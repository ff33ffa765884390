#include "src/fs/fs_proxy.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// How many leading blocks of a range the cache-hit probe inspects.
constexpr uint64_t kCacheProbeBlocks = 8;

// Consecutive faulted P2P transfers before the P2P path goes on cooldown,
// and how many subsequent requests route straight to buffered I/O.
constexpr uint32_t kP2pFaultStreakLimit = 3;
constexpr uint64_t kP2pCooldownRequests = 16;

// DMA copy attempts while faults are armed.
constexpr int kDmaMaxAttempts = 3;

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

bool DegradableFault(const Status& status) {
  return status.code() == ErrorCode::kTimedOut ||
         status.code() == ErrorCode::kIoError;
}

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
                       ShardLabel("", shard.shard_id, shard.shard_count)}) {
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

FsResponse FsProxy::ErrorResponse(const Status& status) {
  FsResponse response;
  response.error = status.code();
  return response;
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
  FsResponse response;
  switch (request.op) {
    case FsOp::kRead:
      response = co_await HandleRead(request, ctx);
      break;
    case FsOp::kWrite:
      response = co_await HandleWrite(request, ctx);
      break;
    case FsOp::kReaddir:
      response = co_await HandleReaddir(request, ctx);
      break;
    default:
      response = co_await HandleMeta(request);
      break;
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
    if (Tracer* tracer = sim_->tracer();
        tracer != nullptr && request.trace_id != 0) {
      // Under tail-based sampling, errored traces are always retained.
      tracer->FlagTrace(request.trace_id, Tracer::TraceFlag::kError);
    }
    MaybeDumpFlightRecorder(
        sim_, "fs.proxy error: " + std::string(ErrorCodeName(response.error)));
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
    SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                               co_await fs_->Fiemap(ino, offset, end - offset));
    uint64_t blocks = (end - offset + kFsBlockSize - 1) / kFsBlockSize;
    std::vector<uint8_t> bounce(blocks * kFsBlockSize);
    auto staged = co_await owner->cache_->Stage(extents, blocks, end - offset,
                                                bounce, IoClass::kReadahead);
    SOLROS_CO_RETURN_IF_ERROR(staged.status());
    offset = end;
  }
  co_return OkStatus();
}

Task<FsResponse> FsProxy::HandleMeta(const FsRequest& request) {
  FsResponse response;
  switch (request.op) {
    case FsOp::kOpen: {
      auto ino = co_await fs_->Lookup(request.Path());
      if (!ino.ok()) {
        co_return ErrorResponse(ino.status());
      }
      response.value = *ino;
      break;
    }
    case FsOp::kCreate: {
      auto ino = co_await fs_->Create(request.Path());
      if (!ino.ok()) {
        co_return ErrorResponse(ino.status());
      }
      response.value = *ino;
      break;
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
      if (!stat.ok()) {
        co_return ErrorResponse(stat.status());
      }
      response.stat = *stat;
      response.value = stat->size;
      break;
    }
    case FsOp::kUnlink: {
      const std::string path = request.Path();
      std::optional<FreedRange> freed;
      if (cache_ != nullptr) {
        auto ino = co_await fs_->Lookup(path);
        if (ino.ok()) {
          auto stat = co_await fs_->StatInode(*ino);
          if (stat.ok()) {
            freed = FreedRange{*ino, 0, stat->size};
          }
        }
      }
      Status status = co_await FreeBlocks(freed, 0, fs_->Unlink(path));
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    case FsOp::kMkdir: {
      Status status = co_await fs_->Mkdir(request.Path());
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    case FsOp::kRmdir: {
      Status status = co_await fs_->Rmdir(request.Path());
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    case FsOp::kRename: {
      Status status = co_await fs_->Rename(request.Path(), request.Path2());
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    case FsOp::kTruncate: {
      // A partially kept last block stays cached with its freed tail zeroed.
      std::optional<FreedRange> freed;
      if (cache_ != nullptr) {
        auto stat = co_await fs_->StatInode(request.ino);
        if (stat.ok() && request.length < stat->size) {
          freed = FreedRange{request.ino, request.length,
                             stat->size - request.length};
        }
      }
      Status status = co_await FreeBlocks(
          freed, request.length % kFsBlockSize,
          fs_->Truncate(request.ino, request.length));
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    case FsOp::kFsync: {
      Status status = co_await FsyncBarrier();
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
      break;
    }
    default:
      co_return ErrorResponse(NotSupportedError("bad fs op"));
  }
  co_return response;
}

void FsProxy::NoteP2pFault() {
  if (++p2p_fault_streak_ < kP2pFaultStreakLimit) {
    return;
  }
  p2p_fault_streak_ = 0;
  p2p_cooldown_until_ = stats_.requests + kP2pCooldownRequests;
  static Counter* const cooldowns =
      MetricRegistry::Default().GetCounter("fs.proxy.p2p_cooldowns");
  cooldowns->Increment();
  TRACE_INSTANT(sim_, "proxy", "fs.proxy.p2p_cooldown");
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

Task<Status> FsProxy::FreeBlocks(std::optional<FreedRange> range,
                                 uint32_t keep_bytes, Task<Status> free_op) {
  std::vector<FsExtent> freed;
  if (range.has_value()) {
    auto extents =
        co_await fs_->Fiemap(range->ino, range->offset, range->length);
    if (extents.ok()) {
      freed = std::move(*extents);
    }
  }
  // Before the free: drop every shard's copies. No cross-core charge,
  // matching a store to a shared invalidation queue; the only wait is for
  // write-backs already in flight.
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
  if (store_->volatile_write_cache()) {
    // Durable order, shard-wide: push every shard's dirty pages to the
    // device first, then fence them behind every shard's in-flight
    // scheduler batches with ordered barriers, and only then commit
    // metadata — the journal commit's device flushes make the
    // already-completed data writes stable, so an acked fsync survives a
    // power cut no matter which shard's cache held the pages.
    for (FsProxy* peer : shards) {
      if (peer->cache_ != nullptr) {
        SOLROS_CO_RETURN_IF_ERROR(co_await peer->cache_->Flush());
      }
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
  // Write-through store: acked writes are already stable, so the
  // historical order (metadata first, then cache write-back) is kept
  // bit-for-bit for the seed configurations.
  SOLROS_CO_RETURN_IF_ERROR(co_await fs_->Sync());
  for (FsProxy* peer : shards) {
    if (peer->cache_ != nullptr) {
      SOLROS_CO_RETURN_IF_ERROR(co_await peer->cache_->Flush());
    }
  }
  co_return OkStatus();
}

Task<Result<bool>> FsProxy::ShouldUseP2p(const FsRequest& request,
                                         uint64_t length,
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

Task<FsResponse> FsProxy::HandleRead(const FsRequest& request,
                                     TraceContext ctx) {
  if (!OwnsRange(request.ino, request.offset,
                 std::min(request.length, request.memory.length))) {
    co_return ErrorResponse(InvalidArgumentError("read outside shard range"));
  }
  FsResponse response;
  auto stat = co_await fs_->StatInode(request.ino);
  if (!stat.ok()) {
    co_return ErrorResponse(stat.status());
  }
  if (request.offset >= stat->size) {
    response.value = 0;
    co_return response;
  }
  uint64_t length = std::min({request.length, request.memory.length,
                              stat->size - request.offset});
  if (length == 0) {
    response.value = 0;
    co_return response;
  }

  // Track the sequential stream regardless of the path taken: the window
  // state both steers the path decision and sizes the staged readahead.
  uint32_t ra_blocks = 0;
  if (cache_ != nullptr) {
    ra_blocks =
        UpdateReadStream(request.client, request.ino, request.offset, length);
  }

  auto p2p = co_await ShouldUseP2p(request, length, ra_blocks);
  if (!p2p.ok()) {
    co_return ErrorResponse(p2p.status());
  }
  bool use_buffered = !*p2p;
  if (*p2p) {
    ++stats_.p2p_reads;
    static Counter* const p2p_reads =
        MetricRegistry::Default().GetCounter("fs.proxy.p2p_reads");
    p2p_reads->Increment();
    ScopedSpan data(sim_, "proxy", "fs.data.p2p", ctx);
    auto extents = co_await fs_->Fiemap(request.ino, request.offset, length);
    if (!extents.ok()) {
      co_return ErrorResponse(extents.status());
    }
    // P2P bypasses the cache; push this shard's dirty pages of the range
    // (the only cached copies) first so the device read returns the newest
    // bytes.
    Status coherent = co_await FlushExtents(*extents);
    if (!coherent.ok()) {
      co_return ErrorResponse(coherent);
    }
    Status status = co_await store_->ReadExtents(
        *extents, request.memory.Sub(0, length), options_.coalesce_nvme,
        data.context());
    if (status.ok()) {
      NoteP2pSuccess();
    } else if (DegradableFault(status)) {
      // Degrade: re-serve the whole range host-staged. The buffered path
      // rewrites every target byte, so a partially-landed P2P vector can
      // never leak through as silent corruption.
      NoteP2pFault();
      ++stats_.degraded_reads;
      static Counter* const degraded =
          MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded");
      degraded->Increment();
      TRACE_INSTANT(sim_, "proxy", "fs.proxy.p2p_degraded");
      use_buffered = true;
    } else {
      co_return ErrorResponse(status);
    }
  }
  if (use_buffered) {
    ++stats_.buffered_reads;
    static Counter* const buffered_reads =
        MetricRegistry::Default().GetCounter("fs.proxy.buffered_reads");
    buffered_reads->Increment();
    ScopedSpan data(sim_, "proxy", "fs.data.buffered", ctx);
    Status status = co_await BufferedRead(request.ino, request.offset, length,
                                          request.memory, ra_blocks,
                                          stat->size, data.context());
    if (!status.ok()) {
      co_return ErrorResponse(status);
    }
  }
  response.value = length;
  co_return response;
}

Task<FsResponse> FsProxy::HandleWrite(const FsRequest& request,
                                      TraceContext ctx) {
  FsResponse response;
  uint64_t length = std::min(request.length, request.memory.length);
  if (!OwnsRange(request.ino, request.offset, length)) {
    co_return ErrorResponse(InvalidArgumentError("write outside shard range"));
  }
  if (length == 0) {
    response.value = 0;
    co_return response;
  }
  auto p2p = co_await ShouldUseP2p(request, length);
  if (!p2p.ok()) {
    co_return ErrorResponse(p2p.status());
  }
  if (*p2p) {
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
        response.value = length;
        co_return response;
      }
      if (!DegradableFault(status)) {
        co_return ErrorResponse(status);
      }
      // Degrade: rewrite the whole range through the buffered path. The
      // same bytes go to the same already-allocated blocks, so a partially
      // landed P2P vector is simply overwritten.
      NoteP2pFault();
      ++stats_.degraded_writes;
      static Counter* const degraded =
          MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded");
      degraded->Increment();
      TRACE_INSTANT(sim_, "proxy", "fs.proxy.p2p_degraded");
    } else if (extents.code() != ErrorCode::kFailedPrecondition) {
      co_return ErrorResponse(extents.status());
    }
    // Gap past EOF (or a faulted P2P write): fall through to buffered.
  }
  ++stats_.buffered_writes;
  static Counter* const buffered_writes =
      MetricRegistry::Default().GetCounter("fs.proxy.buffered_writes");
  buffered_writes->Increment();
  ScopedSpan data(sim_, "proxy", "fs.data.buffered", ctx);
  Status status = co_await BufferedWrite(request.ino, request.offset, length,
                                         request.memory, data.context());
  if (!status.ok()) {
    co_return ErrorResponse(status);
  }
  response.value = length;
  co_return response;
}

Task<Status> FsProxy::DmaCopyWithRetry(MemRef dst, MemRef src,
                                       TraceContext ctx) {
  const int attempts = Faults().any_armed() ? kDmaMaxAttempts : 1;
  Nanos backoff = params_.dma_init_host;
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = co_await host_dma_.Copy(dst, src, ctx);
    if (status.ok() || attempt >= attempts) {
      co_return status;
    }
    static Counter* const retries =
        MetricRegistry::Default().GetCounter("fs.proxy.dma_retries");
    retries->Increment();
    TRACE_INSTANT(sim_, "proxy", "fs.proxy.dma_retry");
    co_await Delay(backoff);
    backoff *= 2;
  }
}

Task<Status> FsProxy::BufferedRead(uint64_t ino, uint64_t offset,
                                   uint64_t length, MemRef target,
                                   uint32_t ra_blocks, uint64_t file_size,
                                   TraceContext ctx) {
  // Stage the byte range in a host bounce buffer through the cache
  // (BufferCache::Stage). A readahead window extends the staged range past
  // the request so a miss run spanning the boundary fetches the next
  // `ra_blocks` speculatively in the same device read.
  uint64_t first_block = offset / kFsBlockSize;
  uint64_t last_block = (offset + length + kFsBlockSize - 1) / kFsBlockSize;
  uint64_t nblocks = last_block - first_block;
  uint64_t stage_blocks = nblocks;
  if (ra_blocks > 0) {
    uint64_t file_blocks = (file_size + kFsBlockSize - 1) / kFsBlockSize;
    uint64_t headroom =
        file_blocks > last_block ? file_blocks - last_block : 0;
    stage_blocks += std::min<uint64_t>(ra_blocks, headroom);
  }
  // Clip speculation at the end of this shard's stripe: blocks past it
  // belong to another shard, whose own stream detector readaheads them
  // into ITS cache.
  uint64_t owned_end = OwnedRangeEnd(offset, kFsBlockSize, shard_.shard_count);
  stage_blocks = std::min(stage_blocks, owned_end / kFsBlockSize - first_block);
  if (stage_blocks > nblocks) {
    TRACE_INSTANT(sim_, "proxy", "fs.proxy.readahead");
  }
  DeviceBuffer bounce(host_cpu_->device(), stage_blocks * kFsBlockSize);

  SOLROS_CO_ASSIGN_OR_RETURN(
      std::vector<FsExtent> extents,
      co_await fs_->Fiemap(ino, first_block * kFsBlockSize,
                           stage_blocks * kFsBlockSize));

  if (cache_ == nullptr) {
    // No cache (ablation A3): one demand read per extent.
    uint64_t cursor = 0;
    for (const FsExtent& e : extents) {
      SOLROS_CO_RETURN_IF_ERROR(co_await iosched_.Read(
          e.start, e.len,
          {bounce.data() + cursor * kFsBlockSize, e.len * kFsBlockSize},
          IoClass::kDemand, ctx));
      cursor += e.len;
    }
  } else {
    // The staging walk runs under a cache span (child of the buffered data
    // span) whose args record the per-request outcome: demand blocks served
    // from cache, demand blocks fetched from the device, and speculative
    // readahead blocks piggybacked onto those fetches. The span closes
    // before the DMA: the move is not cache time.
    ScopedSpan cache_span(sim_, "cache", "cache.read", ctx);
    SOLROS_CO_ASSIGN_OR_RETURN(
        BufferCache::StageCounts staged,
        co_await cache_->Stage(extents, nblocks,
                               file_size - first_block * kFsBlockSize,
                               {bounce.data(), stage_blocks * kFsBlockSize},
                               IoClass::kDemand, cache_span.context()));
    cache_span.AddArg("hits", staged.hits);
    cache_span.AddArg("misses", staged.misses);
    cache_span.AddArg("readahead", staged.readahead);
  }

  // One host-initiated DMA moves the requested bytes to the target.
  uint64_t in_off = offset % kFsBlockSize;
  if (target.device() == host_cpu_->device()) {
    std::memcpy(target.span().data(), bounce.data() + in_off, length);
    co_await Delay(TransferTime(length, params_.host_mem_bw));
  } else {
    SOLROS_CO_RETURN_IF_ERROR(co_await DmaCopyWithRetry(
        target.Sub(0, length), MemRef::Of(bounce, in_off, length), ctx));
  }
  co_return OkStatus();
}

Task<Status> FsProxy::BufferedWrite(uint64_t ino, uint64_t offset,
                                    uint64_t length, MemRef source,
                                    TraceContext ctx) {
  // Pull the data to a host bounce buffer with one DMA, then write through
  // the file system (which handles allocation, gaps, and partial blocks).
  DeviceBuffer bounce(host_cpu_->device(), length);
  if (source.device() == host_cpu_->device()) {
    std::memcpy(bounce.data(), source.span().data(), length);
    co_await Delay(TransferTime(length, params_.host_mem_bw));
  } else {
    SOLROS_CO_RETURN_IF_ERROR(co_await DmaCopyWithRetry(
        MemRef::Of(bounce), source.Sub(0, length), ctx));
  }
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

Task<FsResponse> FsProxy::HandleReaddir(const FsRequest& request,
                                        TraceContext ctx) {
  FsResponse response;
  auto entries = co_await fs_->Readdir(request.Path());
  if (!entries.ok()) {
    co_return ErrorResponse(entries.status());
  }
  // Zero-copy: serialize Dirent rows into the caller's memory window.
  uint64_t max_rows = request.memory.length / sizeof(Dirent);
  uint64_t skip = request.offset;  // row offset for chunked listings
  uint64_t produced = 0;
  std::vector<uint8_t> staged;
  for (uint64_t i = skip; i < entries->size() && produced < max_rows; ++i) {
    const DirEntry& row = (*entries)[i];
    Dirent ent;
    ent.ino = row.ino;
    ent.type = row.is_dir ? (kModeDir >> 12) : (kModeFile >> 12);
    ent.SetName(row.name);
    staged.resize(staged.size() + sizeof(Dirent));
    std::memcpy(staged.data() + produced * sizeof(Dirent), &ent,
                sizeof(Dirent));
    ++produced;
  }
  if (!staged.empty()) {
    DeviceBuffer bounce(host_cpu_->device(), staged.size());
    std::memcpy(bounce.data(), staged.data(), staged.size());
    if (request.memory.device() == host_cpu_->device()) {
      std::memcpy(request.memory.span().data(), bounce.data(), staged.size());
    } else {
      Status status = co_await DmaCopyWithRetry(
          request.memory.Sub(0, staged.size()), MemRef::Of(bounce), ctx);
      if (!status.ok()) {
        co_return ErrorResponse(status);
      }
    }
  }
  response.value = produced;
  co_return response;
}

}  // namespace solros
