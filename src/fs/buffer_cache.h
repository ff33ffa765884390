// Host-side shared buffer cache (§4.3.2).
//
// The control-plane proxy keeps a cache of file-system blocks in host DRAM,
// shared by all data-plane OSes ("Solros is a shared-something
// architecture"). Pages live in a host DeviceBuffer arena. A hit costs no
// disk access: Stage copies the page into the caller's host bounce buffer,
// from which the proxy moves it with one host-initiated DMA.
//
// Device bytes enter the cache one way: Stage(), the staged fill behind
// both buffered reads and prefetch. It copies hits out, fetches each miss
// run with one device read, and installs the fetched blocks clean — except
// those a write or free touched while the fetch was in flight, whose
// fetched bytes may be older than the device's. The only other install is
// InsertDirty(), a write absorbed as a dirty page.
//
// Eviction is a segmented LRU (2Q-style): new pages enter a *probation*
// segment and are promoted to the *protected* segment on their second
// touch. A streaming scan from one co-processor therefore churns only
// probation and cannot flush another co-processor's hot (protected) working
// set.
//
// The page table costs no heap node per block: a Page lives at its arena
// slot's index in one array, the two segments are doubly linked lists of
// slot indices threaded through the pages, and LBA -> slot is one dense
// array over the device's blocks. Both arrays are calloc'd, so their memory
// becomes resident only as pages are touched.
//
// Write policy is write-back: dirty pages are flushed on eviction and on
// Flush(). The cache keeps an LBA-ordered index of its dirty pages, so
// choosing what to write costs the dirty pages, not the cache size:
// Flush() takes the whole index, FlushRange() the slice inside its range,
// and an eviction the contiguous cluster of index neighbours around the
// victim. Each goes to the device in ascending LBA order as one vectored
// multi-block write (one command per contiguous run, one doorbell for the
// batch). Write-back snapshots content and clears dirty bits up front;
// every submission is tracked as an in-flight LBA range until the device
// confirms it, so (a) Flush/FlushRange wait out overlapping in-flight
// writes instead of treating snapshot-cleaned pages as durable, (b) no
// second write is ever submitted for an LBA that overlaps an in-flight one
// (NVMe gives no ordering across submissions), and (c) a page re-dirtied
// while its snapshot is in flight keeps its dirty bit and is written again
// later rather than evicted with the new bytes dropped.
//
// Counters live in the process MetricRegistry (cache.hits, cache.misses,
// cache.evictions, cache.readahead_hits, cache.readahead_blocks,
// cache.writeback_coalesced_blocks, cache.writeback_runs) with segment and
// dirty sizes as gauges. The per-instance accessors read instance-local
// mirrors incremented alongside the globals, so multiple caches in one
// process each report their own traffic (the gauges, being process-global,
// reflect whichever instance updated last).
#ifndef SOLROS_SRC_FS_BUFFER_CACHE_H_
#define SOLROS_SRC_FS_BUFFER_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <span>
#include <vector>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/fs/block_store.h"
#include "src/fs/io_scheduler.h"
#include "src/fs/layout.h"
#include "src/hw/memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {

class BufferCache {
 public:
  // `arena_device` is where pages live (the host socket device).
  BufferCache(BlockStore* backing, DeviceId arena_device,
              size_t capacity_blocks);

  // Routes backing-store traffic through `sched` (Stage's class for its
  // fetches, write-back class for flushes) instead of hitting the store
  // directly. Null (the default) submits straight to the backing store.
  void set_io_scheduler(IoScheduler* sched) { sched_ = sched; }

  // Attaches USE telemetry (default series "fs.cache"; a sharded proxy
  // passes "fs.cache[k]"): depth = dirty pages awaiting write-back, ops =
  // demand hits, wait unused. No-op when the simulator has no telemetry hub.
  // The cache is built without a Simulator, so the owner (FsProxy, tests)
  // wires this explicitly.
  void set_telemetry(Simulator* sim, const std::string& series = "fs.cache");

  // What one Stage call did with the blocks of its extents.
  struct StageCounts {
    uint64_t hits = 0;       // demand blocks copied out of the cache
    uint64_t misses = 0;     // demand blocks fetched from the device
    uint64_t readahead = 0;  // speculative blocks fetched with them
  };

  // The one way device bytes enter the cache. Stages the blocks of
  // `extents`, in order, into `out`: the first `demand_blocks` are
  // demanded, the rest are speculative readahead. A cached demand block is
  // copied out (a hit). A run of uncached blocks that starts at a demand
  // block is fetched with one device read in class `cls` — the run may
  // extend into the speculative tail — and its bytes of `out` at or past
  // `valid_bytes` are zeroed (bytes past EOF, which the file system
  // zero-fills on the device when the file grows, telling no cache). Its
  // blocks are then installed clean, except a block that a write or free
  // touched since the call began: the fetch may hold its older bytes.
  // Speculative blocks are never fetched on their own, and cached ones are
  // not copied; fetched ones are tagged readahead, so their first demand
  // hit counts in cache.readahead_hits and does not promote. Call Stage
  // right after looking `extents` up, with no suspension in between: the
  // watch on writes and frees starts when Stage does. Fetched demand
  // blocks count as misses.
  Task<Result<StageCounts>> Stage(std::span<const FsExtent> extents,
                                  uint64_t demand_blocks, uint64_t valid_bytes,
                                  std::span<uint8_t> out, IoClass cls,
                                  TraceContext ctx = {});

  // Installs a full-block overwrite as a dirty page without faulting the
  // old content in from disk (write-back absorption). If the block is
  // already cached its content is replaced in place.
  Task<Status> InsertDirty(uint64_t lba, std::span<const uint8_t> content);

  // Drops the pages of [lba, lba+nblocks) without write-back (the device
  // bytes are about to change, or the blocks are being freed), then waits
  // out the in-flight write-backs overlapping the range, so a write that
  // follows lands after them on the device.
  Task<void> DiscardRange(uint64_t lba, uint64_t nblocks);
  // Drops the clean pages of [lba, lba+nblocks); dirty pages stay.
  void InvalidateCleanRange(uint64_t lba, uint64_t nblocks);
  // Zeroes a cached page from byte `offset` on, keeping its dirty state
  // (a truncate keeps the block's head and frees its tail).
  void ZeroFrom(uint64_t lba, uint32_t offset);
  bool Contains(uint64_t lba) const;

  Task<Status> Flush();
  // Writes back (but keeps cached, now clean) every dirty page inside
  // [lba, lba+nblocks). Fast no-op when the cache holds no dirty pages —
  // the proxy calls this before P2P reads for write-back coherence.
  Task<Status> FlushRange(uint64_t lba, uint64_t nblocks);

  uint64_t hits() const { return local_hits_; }
  uint64_t misses() const { return local_misses_; }
  uint64_t evictions() const { return local_evictions_; }
  uint64_t readahead_hits() const { return local_readahead_hits_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t dirty_pages() const { return dirty_.size(); }
  // True while a write-back submission is outstanding at the device. Pages
  // covered by it are already clean, so "dirty_pages() == 0" alone must
  // not be read as "everything durable".
  bool writeback_in_flight() const { return !inflight_.empty(); }
  size_t protected_pages() const { return protected_.size; }
  size_t probation_pages() const { return probation_.size; }

 private:
  enum class Segment : uint8_t { kProbation, kProtected };

  // No slot: an LRU list end, or an LBA that is not cached.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // The page in one arena slot. All-zero bytes are a valid unused entry.
  struct Page {
    uint64_t lba;
    // Neighbours in the page's segment list (prev is more recent); a free
    // slot links the free list through `next`.
    uint32_t prev;
    uint32_t next;
    bool dirty;
    bool readahead;  // speculative fill, not yet touched
    Segment segment;
  };

  // A segment: an MRU-first list of slots linked through Page::prev/next.
  struct LruList {
    uint32_t head = kNoSlot;
    uint32_t tail = kNoSlot;
    size_t size = 0;
  };

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  // A calloc'd array: zero-filled, and resident only where touched.
  template <typename T>
  using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;
  template <typename T>
  static ZeroedArray<T> AllocateZeroed(size_t count);

  // One dirty page staged for write-back: content is snapshotted so the
  // arena slot may be concurrently evicted/reused while the write is in
  // flight.
  struct WritebackPlan {
    std::vector<uint64_t> lbas;           // sorted, one per page
    // Snapshot, lbas.size() blocks; every byte is copied in, so it is
    // allocated uninitialised.
    std::unique_ptr<uint8_t[]> scratch;
    std::vector<ConstBlockRun> runs;      // contiguous groups over scratch
  };

  // One write-back submission not yet confirmed by the device. Pages in
  // [lo, hi] had their dirty bits cleared at snapshot time, so "no dirty
  // pages" alone does not mean the range is durable — flushes must wait
  // these out, and no new write may be submitted for an overlapping LBA
  // (the device gives no ordering across submissions).
  struct InflightWriteback {
    uint64_t lo;
    uint64_t hi;  // inclusive
  };

  // One Stage call's watch on its blocks (`runs`, which must outlive it):
  // a block invalidated or dirtied while the fill is open is stale, and
  // the fill does not install it.
  class Fill {
   public:
    Fill(BufferCache* cache, std::span<const FsExtent> runs);
    ~Fill();
    Fill(const Fill&) = delete;
    Fill& operator=(const Fill&) = delete;

    bool stale(uint64_t lba) const;
    // Marks `lba` stale if this fill watches it.
    void Touch(uint64_t lba);

   private:
    BufferCache* cache_;
    std::span<const FsExtent> runs_;
    std::vector<uint64_t> stale_;
  };

  Task<Status> EvictOne();
  // Backing-store I/O, routed through the I/O scheduler when one is set.
  Task<Status> BackingRead(uint64_t lba, uint32_t nblocks,
                           std::span<uint8_t> out, IoClass cls,
                           TraceContext ctx);
  Task<Status> BackingWriteV(std::span<const ConstBlockRun> runs);
  // Writes `plan` to the backing store as one vectored submission tracked
  // as an in-flight range, re-marking still-cached pages dirty if the
  // write fails.
  Task<Status> WritebackRuns(WritebackPlan plan);
  bool OverlapsInflight(uint64_t lba, uint64_t nblocks) const;
  // Suspends until no in-flight write-back overlaps [lba, lba+nblocks)
  // (respectively: until none is in flight at all).
  Task<void> AwaitInflight(uint64_t lba, uint64_t nblocks);
  Task<void> AwaitAllInflight();
  Task<void> WaitInflightChange();
  void NotifyInflight();
  // Snapshots the (sorted) dirty pages in `lbas` into a plan and clears
  // their dirty bits. Caller guarantees lbas are cached and dirty.
  WritebackPlan PlanWriteback(std::vector<uint64_t> lbas);
  Task<Status> InsertLocked(uint64_t lba, std::span<const uint8_t> content,
                            bool dirty, bool readahead);
  // Copies the page in `slot` out as a demand hit: counts it and touches it.
  void CopyHit(uint32_t slot, std::span<uint8_t> out);
  // Drops a page without write-back.
  void Invalidate(uint64_t lba);
  // The slot caching `lba`, or kNoSlot.
  uint32_t Lookup(uint64_t lba) const {
    CHECK(lba < block_count_) << "lba " << lba;
    return slot_of_[lba] - 1;
  }
  // Takes a free slot for `lba`'s new page, at the probation head.
  uint32_t Install(uint64_t lba, bool readahead);
  // Unlinks and unmaps the page in `slot` and frees the slot.
  void Release(uint32_t slot);
  void TouchHit(uint32_t slot, bool promote = true);
  void PushFront(LruList& list, uint32_t slot);
  void Remove(LruList& list, uint32_t slot);
  LruList& SegmentList(Segment segment) {
    return segment == Segment::kProtected ? protected_ : probation_;
  }
  void SetDirty(Page& page, bool dirty);
  // Marks `lba` stale in every open fill that watches it.
  void TouchFills(uint64_t lba);
  void UpdateGauges();
  MemRef SlotRef(size_t slot);

  BlockStore* backing_;
  IoScheduler* sched_ = nullptr;
  size_t capacity_;
  uint32_t block_size_;
  size_t protected_cap_;
  uint64_t block_count_;
  DeviceBuffer arena_;
  // Indexed by arena slot; slots [0, unused_slot_) have held a page.
  ZeroedArray<Page> pages_;
  // Indexed by LBA: slot + 1, or 0 when the block is not cached.
  ZeroedArray<uint32_t> slot_of_;
  size_t size_ = 0;
  uint32_t free_head_ = kNoSlot;  // freed slots, reused most recent first
  uint32_t unused_slot_ = 0;
  LruList probation_;
  LruList protected_;
  // LBAs of the dirty pages, ascending; SetDirty keeps it in step with
  // Page::dirty.
  std::set<uint64_t> dirty_;
  std::list<InflightWriteback> inflight_;
  std::vector<Fill*> fills_;  // open fills, touched on invalidate and dirty
  // Lazily built on first wait: the cache is constructed without a
  // Simulator, which Condition needs; waiters obtain it from their task.
  std::unique_ptr<Condition> inflight_cond_;

  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* readahead_hits_;
  Counter* readahead_blocks_;
  Counter* writeback_coalesced_blocks_;
  Counter* writeback_runs_;
  Gauge* probation_gauge_;
  Gauge* protected_gauge_;
  Gauge* dirty_gauge_;
  Simulator* telemetry_sim_ = nullptr;  // time source for use_ stamps
  UseSeries* use_ = nullptr;
  // Instance-local mirrors of the global counters, so the accessors never
  // see another live cache's traffic.
  uint64_t local_hits_ = 0;
  uint64_t local_misses_ = 0;
  uint64_t local_evictions_ = 0;
  uint64_t local_readahead_hits_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_BUFFER_CACHE_H_
