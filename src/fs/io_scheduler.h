// Host-side NVMe I/O scheduler for the staged path (§4.3, §5).
//
// Solros wins by letting the one host that can see every client drive the
// device optimally: the P2P ioctls turn N commands into one doorbell and
// one interrupt. The staged path historically did not — every concurrent
// buffer-cache miss submitted on its own, two misses on the same LBA read
// flash twice, and background readahead/write-back competed head-to-head
// with demand misses for queue slots. This scheduler sits between the
// buffer cache / FS proxy and NvmeBlockStore and closes that gap with three
// mechanisms, always on:
//
//   single-flight reads   a read whose LBA range is covered by a merged
//                         run already in flight attaches to it as a waiter
//                         instead of re-reading flash; queued overlapping
//                         reads union-merge into one command. A shared
//                         fetch that fails (after the block store's
//                         retries) fails every waiter coherently.
//   plug/unplug batching  a request arriving at an idle scheduler plugs
//                         the queue for a bounded sim-time window
//                         (auto-unplugging early once kPlugMaxBatch
//                         requests accumulate); everything gathered is
//                         LBA-sorted, adjacent runs merged, and submitted
//                         as one coalesced vector = one doorbell + one
//                         interrupt. Rounds are pipelined up to
//                         kMaxInflightBatches dispatched-but-uncompleted
//                         submissions: the device's internal queue-slot
//                         parallelism stays fed, deeper backlogs wait at
//                         the scheduler where they can still be
//                         reordered, and the plug window only gates
//                         idle-arrival batching.
//   priority classes      demand reads > write-back flushes > readahead;
//                         each round dispatches strictly the best
//                         non-empty class, so background I/O never queues
//                         ahead of a foreground miss. Within a class,
//                         requests dispatch in arrival order.
//
// Retries stay *below* the scheduler (NvmeBlockStore::SubmitWithRetry), so
// a faulted batch is re-submitted whole and its waiters see one coherent
// outcome. Queue residency is traced per request as an "iosched.queue"
// span parented to the request's context, and iosched.* counters record
// merges, plugs, dedup hits, and per-class dispatches.
#ifndef SOLROS_SRC_FS_IO_SCHEDULER_H_
#define SOLROS_SRC_FS_IO_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/fs/nvme_block_store.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {

// Dispatch classes, best first. Values are the strict dispatch order.
enum class IoClass : uint8_t {
  kOrdered = 0,    // durability barriers (journal/fsync flushes); a barrier
                   // also fences the dispatch pipeline, see Flush()
  kDemand = 1,     // a caller is blocked on these bytes
  kWriteback = 2,  // dirty-page flushes (eviction, fsync)
  kReadahead = 3,  // speculation; nobody waits yet
};
inline constexpr int kIoClassCount = 4;

struct IoSchedulerOptions {
  // Submit each round's vector under one doorbell/interrupt (ablation A1).
  bool coalesce_nvme = true;
  // Appended to the USE series names ("iosched.demand<suffix>" etc.) so
  // each control-plane shard's scheduler instance reports as its own
  // component (e.g. "[2]"). Empty preserves the unsharded names.
  std::string telemetry_suffix;
};

class IoScheduler {
 public:
  IoScheduler(Simulator* sim, NvmeBlockStore* store,
              const IoSchedulerOptions& options = IoSchedulerOptions());
  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // All entry points suspend the caller until the device round that
  // carries the request completes, and return its Status. Spans/`out`
  // stay alive across the await because the caller owns them; the device
  // may DMA straight to or from them, under NvmeBlockStore's DMA contract.
  Task<Status> Read(uint64_t lba, uint32_t nblocks, std::span<uint8_t> out,
                    IoClass cls = IoClass::kDemand, TraceContext ctx = {});
  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      IoClass cls = IoClass::kWriteback,
                      TraceContext ctx = {});
  // Durability barrier (kOrdered class, above demand): waits for every
  // already-dispatched device submission to complete, then issues one
  // BlockStore::Flush; no later round dispatches until the flush returns.
  // The request's whole residency (queue + barrier drain + device flush)
  // is recorded as its iosched.queue span, so stage attribution still sums
  // exactly. A free no-op flush (write-through store) still pays the
  // ordering fence but no device time.
  Task<Status> Flush(TraceContext ctx = {});

  // Instance-local statistics (the same counts also land in the process
  // MetricRegistry under iosched.*).
  uint64_t batches() const { return local_batches_; }
  uint64_t merges() const { return local_merges_; }
  uint64_t plugs() const { return local_plugs_; }
  uint64_t dedup_hits() const { return local_dedup_hits_; }
  uint64_t stalls() const { return local_stalls_; }
  uint64_t dispatched(IoClass cls) const {
    return local_dispatched_[static_cast<int>(cls)];
  }
  uint64_t queued() const { return pending_; }
  // Deepest backlog ever seen at a dispatch decision — how much choice
  // the policy actually had.
  uint64_t peak_queued() const { return peak_queued_; }

 private:
  struct IoRequest {
    bool is_write = false;
    bool is_flush = false;
    IoClass cls = IoClass::kDemand;
    TraceContext ctx;
    SimTime enqueued = 0;
    uint64_t seq = 0;      // global arrival order
    // Reads: one contiguous range into `out`.
    uint64_t lba = 0;
    uint32_t nblocks = 0;
    std::span<uint8_t> out;
    // Writes: caller-owned run descriptors (data aliases caller memory,
    // which outlives the request — the caller is suspended on it).
    std::vector<ConstBlockRun> wruns;
    bool done = false;
    Status status;
  };

  // One merged device run within an in-flight read batch.
  struct MergedRun {
    uint64_t lba = 0;
    uint32_t nblocks = 0;
    // Serves several requests (a merge or a dedup), so the device DMAs
    // into `scratch`; a run serving one request targets its `out`.
    bool shared = false;
    std::span<uint8_t> target;
    std::unique_ptr<uint8_t[]> scratch;
  };
  // An in-flight read submission; late-arriving covered reads attach to
  // `waiters` and are served from their run's target when the device
  // completes, before any placed request finishes.
  struct InflightReads {
    std::vector<MergedRun> runs;
    std::vector<IoRequest*> waiters;
  };

  // Suspends the caller until `req` completes; enqueues or (for covered
  // reads) attaches to the in-flight batch.
  Task<Status> Submit(IoRequest* req);
  void EnsureDispatcher();
  Task<void> DispatchLoop();
  // Holds the queue open for kPlugWindow (or until kPlugMaxBatch).
  Task<void> PlugWait();
  Task<void> PlugTimer(uint64_t epoch);
  Task<void> DispatchRound();
  // Pops the next batch: the best non-empty class, in arrival order.
  std::vector<IoRequest*> SelectBatch();
  Task<void> SubmitReads(std::vector<IoRequest*> reads);
  Task<void> SubmitWrites(std::vector<IoRequest*> writes);
  // Drains every other in-flight submission, then one store Flush for the
  // whole group of barrier requests.
  Task<void> SubmitFlushes(std::vector<IoRequest*> flushes);
  // The in-flight batch whose merged runs fully contain
  // [lba, lba+nblocks), or null when no such batch is at the device.
  InflightReads* FindInflightCover(uint64_t lba, uint32_t nblocks);
  void RecordQueueSpan(const IoRequest& req, SimTime end);
  void FinishRequest(IoRequest* req, const Status& status);

  Simulator* sim_;
  NvmeBlockStore* store_;
  IoSchedulerOptions options_;
  uint32_t block_size_;

  std::deque<IoRequest*> classes_[kIoClassCount];  // one FIFO per class
  uint64_t pending_ = 0;   // queued (not yet dispatched) requests
  uint64_t arrivals_ = 0;  // sequence source
  bool dispatcher_started_ = false;
  bool plugged_ = false;
  uint64_t plug_epoch_ = 0;
  uint32_t inflight_batches_ = 0;  // dispatched, device not yet done
  // Barriers dispatched but not yet completed: the dispatch loop stalls
  // while nonzero so nothing overtakes an ordered flush.
  uint32_t barrier_pending_ = 0;
  // In-flight read batches (each lives on its SubmitReads frame); several
  // may be at the device at once since rounds pipeline.
  std::vector<InflightReads*> inflight_reads_;
  Condition work_cond_;
  Condition plug_cond_;
  Condition done_cond_;

  Counter* batches_;
  Counter* merges_;
  Counter* plugs_;
  Counter* dedup_hits_;
  Counter* stalls_;
  Counter* dispatched_[kIoClassCount];
  LatencyHistogram* queue_ns_;
  // USE telemetry per dispatch class ("iosched.demand" etc.): depth counts
  // class-queue residency only — single-flight attach waiters are excluded
  // so depth reflects the schedulable backlog, not piggybacked readers.
  UseSeries* use_[kIoClassCount] = {nullptr, nullptr, nullptr, nullptr};
  // Instance-local mirrors so accessors never see another scheduler's
  // traffic (same pattern as BufferCache).
  uint64_t local_batches_ = 0;
  uint64_t local_merges_ = 0;
  uint64_t local_plugs_ = 0;
  uint64_t local_dedup_hits_ = 0;
  uint64_t local_stalls_ = 0;
  uint64_t local_dispatched_[kIoClassCount] = {0, 0, 0, 0};
  uint64_t peak_queued_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_IO_SCHEDULER_H_
