// Control-plane file-system proxy (§4.3.2).
//
// The proxy runs on the host, owns the only path to the NVMe device, and
// serves file-system RPCs from data-plane stubs. Its defining behaviour is
// the *data-path decision* per read/write:
//
//   peer-to-peer  — translate the file offset to disk extents (fiemap),
//                   translate the target address to the co-processor's
//                   system-mapped window, and issue ONE coalesced NVMe I/O
//                   vector whose DMA lands directly in co-processor memory
//                   (one doorbell, one interrupt — §5);
//   buffered      — stage through the host's shared buffer cache and move
//                   the bytes with a host-initiated DMA.
//
// Buffered is chosen when (§4.3.2): the data is cache-hot; the path would
// cross a NUMA boundary (Fig. 1(a)'s relay collapse); the file was opened
// with O_BUFFER; the transfer is not block-aligned; or the target is host
// memory anyway.
#ifndef SOLROS_SRC_FS_FS_PROXY_H_
#define SOLROS_SRC_FS_FS_PROXY_H_

#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/sharding.h"
#include "src/base/status.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/io_scheduler.h"
#include "src/fs/nvme_block_store.h"
#include "src/fs/solros_fs.h"
#include "src/hw/dma.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/rpc/messages.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/transport/sim_ring.h"

namespace solros {

// Statistics that benchmarks assert on (path decisions, cache behaviour).
struct FsProxyStats {
  uint64_t requests = 0;
  uint64_t p2p_reads = 0;
  uint64_t p2p_writes = 0;
  uint64_t buffered_reads = 0;
  uint64_t buffered_writes = 0;
  // P2P transfers that faulted and were re-served via the buffered path.
  uint64_t degraded_reads = 0;
  uint64_t degraded_writes = 0;
};

class FsProxy;

// Registry for the sharded control plane: every FsProxy shard registers
// here, in shard order, and the two cross-shard operations (free-path cache
// invalidation and the fsync barrier) walk it. The first registered shard
// (shard 0) is the *designated barrier shard*: journal commits route
// through its core so ordered-class flushes keep one global order and the
// crash-consistency guarantees survive sharding unchanged.
class FsShardCoordinator {
 public:
  void Register(FsProxy* shard) { shards_.push_back(shard); }
  const std::vector<FsProxy*>& shards() const { return shards_; }
  FsProxy* barrier_shard() const { return shards_.front(); }

 private:
  std::vector<FsProxy*> shards_;
};

// Identity of one proxy shard inside the sharded control plane, and the
// only FS state the shards share. An unsharded control plane is one shard
// that broadcasts to itself.
struct FsShardContext {
  int shard_id;
  int shard_count;
  // Cross-shard registry the broadcast/barrier protocol walks.
  FsShardCoordinator& coordinator;
};

class FsProxy {
 public:
  struct Options {
    // Buffer cache capacity in fs blocks (0 disables the cache).
    size_t cache_blocks = 32768;  // 128 MiB
    // Coalesce NVMe vectors into one doorbell/interrupt (the §5
    // optimization; ablatable).
    bool coalesce_nvme = true;
    // Allow P2P at all (ablation: force host-staging).
    bool allow_p2p = true;
  };

  // `host_cpu` is this shard's dedicated control-plane core, where the
  // proxy's per-request CPU work runs. `shard` identifies the shard and
  // wires the shared coordinator.
  FsProxy(Simulator* sim, PcieFabric* fabric, const HwParams& params,
          Processor* host_cpu, NvmeBlockStore* store, SolrosFs* fs,
          const Options& options, const FsShardContext& shard);

  // Binds an RPC server on the given ring pair and starts serving.
  void Serve(SimRing* request_ring, SimRing* response_ring);

  // Handles one request: the entry point of every RPC server. A read or
  // write that is not wholly inside this shard's owned range (see
  // OwnedRangeEnd) fails with kInvalidArgument.
  Task<FsResponse> Handle(FsRequest request);

  // Pulls a whole file into the shared buffer cache (§4.3: the control
  // plane "prefetches frequently accessed files ... to the host memory");
  // subsequent buffered reads from any data plane are served from DRAM.
  // Each stripe is staged into its owning shard's cache with a
  // readahead-class BufferCache::Stage. Fails without a cache.
  Task<Status> Prefetch(const std::string& path);

  const FsProxyStats& stats() const { return stats_; }
  BufferCache* cache() { return cache_.get(); }
  // The I/O scheduler all staged-path device traffic goes through.
  IoScheduler* io_scheduler() { return &iosched_; }

  // -- shard introspection ----------------------------------------------------
  int shard_id() const { return shard_.shard_id; }
  // Live sequential-stream table size (each shard keeps its own table).
  size_t read_streams() const { return streams_.size(); }

 private:
  // Each fills `response` for a success and returns the op's status;
  // Handle replies to a failure with the error alone. `ctx` is the
  // request's trace context rooted at the service span; data ops thread it
  // down to the cache/NVMe/DMA spans they cause (metadata I/O stays
  // untagged and is attributed to proxy time).
  Task<Status> HandleRead(const FsRequest& request, TraceContext ctx,
                          FsResponse* response);
  Task<Status> HandleWrite(const FsRequest& request, TraceContext ctx,
                           FsResponse* response);
  Task<Status> HandleReaddir(const FsRequest& request, TraceContext ctx,
                             FsResponse* response);
  Task<Status> HandleMeta(const FsRequest& request, FsResponse* response);

  // §4.3.2's four buffered-mode triggers, plus the readahead steer: a
  // sequential stream with an open window (`readahead_window > 0`) at or
  // below the P2P cutover goes buffered so its device reads batch.
  Task<bool> ShouldUseP2p(const FsRequest& request, uint64_t length,
                          uint32_t readahead_window = 0);

  // True when [offset, offset + length) of `ino` lies wholly inside the
  // stripe this shard owns (always, unsharded).
  bool OwnsRange(uint64_t ino, uint64_t offset, uint64_t length) const;

  // Per-(coprocessor, file) sequential-stream state for readahead. Each
  // shard owns its own table, so two shards that both see one (client, ino)
  // for different block groups of a file track independent streams.
  using StreamKey = std::pair<uint32_t, uint64_t>;
  struct ReadStream {
    uint64_t next_offset = 0;   // where a sequential successor would start
    uint32_t window_blocks = 0; // current readahead window (0 = no stream)
    std::list<StreamKey>::iterator lru_it;  // position in stream_lru_
  };
  // Updates the stream for (client, ino) with this read and returns the
  // readahead window (blocks to speculatively stage past the request).
  uint32_t UpdateReadStream(uint32_t client, uint64_t ino, uint64_t offset,
                            uint64_t length);

  // The staging step of a buffered read and of Prefetch: maps the
  // out.size() / kFsBlockSize blocks of `ino` from `first_block` on, zeroes
  // the part of `out` the map does not cover, and stages the mapped blocks
  // into `owner`'s cache in class `cls`, the first `demand_blocks` of them
  // demanded (BufferCache::Stage; `valid_bytes` counts from `first_block`).
  // Without a cache it reads them through `owner`'s scheduler instead.
  Task<Status> StageBlocks(FsProxy* owner, uint64_t ino, uint64_t first_block,
                           uint64_t demand_blocks, uint64_t valid_bytes,
                           std::span<uint8_t> out, IoClass cls,
                           TraceContext ctx = {});
  // Buffered write: one byte move into a host bounce, then write-back
  // absorption or a write-through.
  Task<Status> BufferedWrite(uint64_t ino, uint64_t offset, uint64_t length,
                             MemRef source, TraceContext ctx);
  // Write-back coherence before a path that reads the device directly (P2P
  // read, read-modify-write): pushes this shard's dirty cached pages of
  // `extents` to the device. A free no-op when none is dirty or in flight.
  Task<Status> FlushExtents(const std::vector<FsExtent>& extents);
  // Drops this shard's cached copies of `extents` (rewritten on the device)
  // and waits out their in-flight write-backs (BufferCache::DiscardRange).
  Task<void> DropExtents(const std::vector<FsExtent>& extents);

  // -- what the shards share ---------------------------------------------------
  // A block of a file is cached only by the shard that owns its stripe, so
  // the read and write paths are shard-local, and every shard maps file
  // ranges with Fiemap on the one SolrosFs. Two things stay shared.
  //
  // The free path of unlink and truncate: runs `free_op`, which frees the
  // blocks of `ino` from byte `from` to its end, between two broadcasts
  // over those blocks (mapped before the free; none without a cache). The
  // allocator may hand freed blocks to any file, so first every shard
  // drops its cached copies — no dirty copy may be written back over the
  // blocks' next owner. A `from` inside a block keeps that block: only its
  // bytes from `from` on are zeroed in place. After the free, every shard
  // drops the clean copies a fill that read the blocks meanwhile may have
  // left; a dirty copy is already the next owner's. Returns `free_op`'s
  // status.
  Task<Status> FreeBlocks(uint64_t ino, uint64_t from, Task<Status> free_op);
  // The fsync path, shard-wide: flush every shard's cache. Under a
  // volatile write cache, that comes first, then every shard's scheduler
  // is fenced with an ordered barrier and the one journal commit runs via
  // the designated barrier shard; a write-through store commits first.
  Task<Status> FsyncBarrier();

  // Host bounce buffers of the buffered paths, leased most recently
  // returned first. A lease holds its buffer until the coroutine that took
  // it ends, so the bytes outlive every DMA that names them, as a buffer of
  // the coroutine's own would. Leased bytes are not zeroed. Under ASan a
  // spare is poisoned while it sits in the pool, so a DMA that names a
  // returned bounce is still reported.
  class BouncePool {
   public:
    class Lease {
     public:
      Lease(BouncePool* pool, std::unique_ptr<DeviceBuffer> buffer)
          : pool_(pool), buffer_(std::move(buffer)) {}
      ~Lease() { pool_->Return(std::move(buffer_)); }
      Lease(const Lease&) = delete;
      Lease& operator=(const Lease&) = delete;

      uint8_t* data() { return buffer_->data(); }
      MemRef Ref(uint64_t offset, uint64_t length) {
        return MemRef::Of(*buffer_, offset, length);
      }

     private:
      BouncePool* pool_;
      std::unique_ptr<DeviceBuffer> buffer_;
    };

    explicit BouncePool(DeviceId device) : device_(device) {}

    // At least `bytes` bytes, which a spare grows to when it is too small.
    Lease Take(uint64_t bytes);

   private:
    void Return(std::unique_ptr<DeviceBuffer> buffer);

    DeviceId device_;
    std::vector<std::unique_ptr<DeviceBuffer>> spares_;
  };

  // The one byte move between a host bounce and a caller's memory: a
  // memcpy charged at host-memory bandwidth when both ends are on one
  // device, else the host DMA, resubmitted while faults are armed (the
  // engine aborts before moving bytes, so a reissue is safe). A reissue
  // flags the request's trace `ctx` for tail sampling.
  Task<Status> MoveBytes(MemRef dst, MemRef src, TraceContext ctx);

  // The P2P fallback's bookkeeping: counts the degraded transfer in
  // `degraded` (stats_.degraded_reads or _writes) and fs.proxy.p2p_degraded.
  // A run of faulted P2P transfers puts the P2P path on cooldown so
  // requests stop paying the fault-and-degrade latency and go straight to
  // the (working) buffered path for a while. Flags the request's trace
  // `ctx` for tail sampling.
  void NoteP2pFault(uint64_t* degraded, TraceContext ctx);
  void NoteP2pSuccess() { p2p_fault_streak_ = 0; }

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  Processor* host_cpu_;
  NvmeBlockStore* store_;
  SolrosFs* fs_;
  Options options_;
  FsShardContext shard_;
  DmaEngine host_dma_;
  std::unique_ptr<BufferCache> cache_;
  IoScheduler iosched_;
  BouncePool bounce_pool_;
  std::vector<std::unique_ptr<RpcServer<FsRequest, FsResponse>>> servers_;
  FsProxyStats stats_;
  // USE telemetry ("fs.proxy" or "fs.proxy[k]"): depth counts requests in
  // service, errors count system-error responses; the shard's dedicated
  // core records its busy intervals into the same series.
  UseSeries* use_ = nullptr;
  std::map<StreamKey, ReadStream> streams_;
  // MRU-first key list; back() is the victim when the table is full, so a
  // saturated table evicts in O(log n) instead of scanning every stream.
  std::list<StreamKey> stream_lru_;
  uint32_t p2p_fault_streak_ = 0;
  uint64_t p2p_cooldown_until_ = 0;  // request ordinal; 0 = not cooling down
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_FS_PROXY_H_
