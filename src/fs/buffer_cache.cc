#include "src/fs/buffer_cache.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/base/logging.h"
#include "src/sim/simulator.h"

namespace solros {

namespace {

// Fraction of capacity reserved for the protected segment.
constexpr double kProtectedFraction = 0.75;
// Max pages one eviction-triggered write-back cluster may carry.
constexpr uint32_t kWritebackMaxBatch = 256;

size_t ProtectedCap(size_t capacity) {
  if (capacity < 2) {
    return 0;
  }
  auto cap = static_cast<size_t>(static_cast<double>(capacity) *
                                 kProtectedFraction);
  return std::clamp<size_t>(cap, 1, capacity - 1);
}

}  // namespace

Task<Status> BufferCache::BackingRead(uint64_t lba, uint32_t nblocks,
                                      std::span<uint8_t> out, IoClass cls,
                                      TraceContext ctx) {
  if (sched_ != nullptr) {
    co_return co_await sched_->Read(lba, nblocks, out, cls, ctx);
  }
  co_return co_await backing_->Read(lba, nblocks, out);
}

Task<Status> BufferCache::BackingWriteV(std::span<const ConstBlockRun> runs) {
  if (sched_ != nullptr) {
    // The scheduler applies its own coalescing policy for the round.
    co_return co_await sched_->WriteV(runs, IoClass::kWriteback);
  }
  co_return co_await backing_->WriteV(runs, /*coalesce=*/true);
}

template <typename T>
BufferCache::ZeroedArray<T> BufferCache::AllocateZeroed(size_t count) {
  ZeroedArray<T> array(static_cast<T*>(std::calloc(count > 0 ? count : 1,
                                                   sizeof(T))));
  CHECK(array != nullptr) << "cannot allocate " << count << " cache entries";
  return array;
}

BufferCache::BufferCache(BlockStore* backing, DeviceId arena_device,
                         size_t capacity_blocks)
    : backing_(backing),
      capacity_(capacity_blocks),
      block_size_(backing->block_size()),
      protected_cap_(ProtectedCap(capacity_blocks)),
      block_count_(backing->block_count()),
      arena_(arena_device, capacity_blocks * backing->block_size()),
      pages_(AllocateZeroed<Page>(capacity_blocks)),
      slot_of_(AllocateZeroed<uint32_t>(block_count_)) {
  CHECK_GT(capacity_blocks, 0u);
  CHECK_LT(capacity_blocks, size_t{kNoSlot});
  MetricRegistry& registry = MetricRegistry::Default();
  hits_ = registry.GetCounter("cache.hits");
  misses_ = registry.GetCounter("cache.misses");
  evictions_ = registry.GetCounter("cache.evictions");
  readahead_hits_ = registry.GetCounter("cache.readahead_hits");
  readahead_blocks_ = registry.GetCounter("cache.readahead_blocks");
  writeback_coalesced_blocks_ =
      registry.GetCounter("cache.writeback_coalesced_blocks");
  writeback_runs_ = registry.GetCounter("cache.writeback_runs");
  probation_gauge_ = registry.GetGauge("cache.probation_pages");
  protected_gauge_ = registry.GetGauge("cache.protected_pages");
  dirty_gauge_ = registry.GetGauge("cache.dirty_pages");
}

void BufferCache::set_telemetry(Simulator* sim, const std::string& series) {
  if (sim == nullptr || sim->telemetry() == nullptr) {
    return;
  }
  telemetry_sim_ = sim;
  use_ = sim->telemetry()->GetSeries(series);
}

bool BufferCache::OverlapsInflight(uint64_t lba, uint64_t nblocks) const {
  if (inflight_.empty() || nblocks == 0) {
    return false;
  }
  uint64_t last = lba + nblocks - 1;
  for (const InflightWriteback& w : inflight_) {
    if (w.lo <= last && w.hi >= lba) {
      return true;
    }
  }
  return false;
}

Task<void> BufferCache::WaitInflightChange() {
  if (inflight_cond_ == nullptr) {
    inflight_cond_ = std::make_unique<Condition>(co_await CurrentSimulator());
  }
  co_await inflight_cond_->Wait();
}

Task<void> BufferCache::AwaitInflight(uint64_t lba, uint64_t nblocks) {
  while (OverlapsInflight(lba, nblocks)) {
    co_await WaitInflightChange();
  }
}

Task<void> BufferCache::AwaitAllInflight() {
  while (!inflight_.empty()) {
    co_await WaitInflightChange();
  }
}

void BufferCache::NotifyInflight() {
  if (inflight_cond_ != nullptr) {
    inflight_cond_->NotifyAll();
  }
}

MemRef BufferCache::SlotRef(size_t slot) {
  return MemRef::Of(arena_, slot * block_size_, block_size_);
}

BufferCache::Fill::Fill(BufferCache* cache, std::span<const FsExtent> runs)
    : cache_(cache), runs_(runs) {
  cache_->fills_.push_back(this);
}

BufferCache::Fill::~Fill() {
  auto& fills = cache_->fills_;
  fills.erase(std::find(fills.begin(), fills.end(), this));
}

bool BufferCache::Fill::stale(uint64_t lba) const {
  return std::find(stale_.begin(), stale_.end(), lba) != stale_.end();
}

void BufferCache::Fill::Touch(uint64_t lba) {
  for (const FsExtent& run : runs_) {
    if (lba >= run.start && lba < run.start + run.len) {
      stale_.push_back(lba);
      return;
    }
  }
}

void BufferCache::TouchFills(uint64_t lba) {
  for (Fill* fill : fills_) {
    fill->Touch(lba);
  }
}

void BufferCache::SetDirty(Page& page, bool dirty) {
  if (dirty) {
    TouchFills(page.lba);
  }
  if (page.dirty == dirty) {
    return;
  }
  page.dirty = dirty;
  if (dirty) {
    dirty_.insert(page.lba);
  } else {
    dirty_.erase(page.lba);
  }
  dirty_gauge_->Set(static_cast<int64_t>(dirty_.size()));
  if (use_ != nullptr) {
    use_->QueueDelta(telemetry_sim_->now(), dirty ? +1 : -1);
  }
}

void BufferCache::UpdateGauges() {
  probation_gauge_->Set(static_cast<int64_t>(probation_.size));
  protected_gauge_->Set(static_cast<int64_t>(protected_.size));
}

void BufferCache::PushFront(LruList& list, uint32_t slot) {
  Page& page = pages_[slot];
  page.prev = kNoSlot;
  page.next = list.head;
  (list.head != kNoSlot ? pages_[list.head].prev : list.tail) = slot;
  list.head = slot;
  ++list.size;
}

void BufferCache::Remove(LruList& list, uint32_t slot) {
  const Page& page = pages_[slot];
  (page.prev != kNoSlot ? pages_[page.prev].next : list.head) = page.next;
  (page.next != kNoSlot ? pages_[page.next].prev : list.tail) = page.prev;
  --list.size;
}

uint32_t BufferCache::Install(uint64_t lba, bool readahead) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = pages_[slot].next;
  } else {
    slot = unused_slot_++;
  }
  pages_[slot] = Page{.lba = lba,
                      .prev = kNoSlot,
                      .next = kNoSlot,
                      .dirty = false,
                      .readahead = readahead,
                      .segment = Segment::kProbation};
  PushFront(probation_, slot);
  slot_of_[lba] = slot + 1;
  ++size_;
  return slot;
}

void BufferCache::Release(uint32_t slot) {
  Page& page = pages_[slot];
  Remove(SegmentList(page.segment), slot);
  slot_of_[page.lba] = 0;
  page.next = free_head_;
  free_head_ = slot;
  --size_;
}

void BufferCache::TouchHit(uint32_t slot, bool promote) {
  Page& page = pages_[slot];
  // A protected page only refreshes its recency. So does the first real
  // reference to a readahead page: a sequential scan consumes each
  // prefetched page exactly once, so counting that touch as reuse would
  // promote the whole stream and flush the protected segment.
  if (page.segment == Segment::kProtected || !promote) {
    LruList& list = SegmentList(page.segment);
    Remove(list, slot);
    PushFront(list, slot);
    return;
  }
  // Second touch: promote probation -> protected.
  Remove(probation_, slot);
  PushFront(protected_, slot);
  page.segment = Segment::kProtected;
  if (protected_.size > protected_cap_) {
    // Demote the protected tail back to probation (most-recent end, so it
    // still outlives a concurrent scan's churn).
    uint32_t demoted = protected_.tail;
    Remove(protected_, demoted);
    PushFront(probation_, demoted);
    pages_[demoted].segment = Segment::kProbation;
  }
}

BufferCache::WritebackPlan BufferCache::PlanWriteback(
    std::vector<uint64_t> lbas) {
  WritebackPlan plan;
  plan.lbas = std::move(lbas);
  plan.scratch = std::make_unique_for_overwrite<uint8_t[]>(plan.lbas.size() *
                                                          block_size_);
  // Snapshot contents and clear dirty bits before any suspension: a page
  // re-dirtied mid-flight stays dirty (its new bytes get a later
  // write-back) and a concurrently evicted/reused slot cannot corrupt the
  // in-flight write.
  for (size_t i = 0; i < plan.lbas.size(); ++i) {
    const uint32_t slot = Lookup(plan.lbas[i]);
    CHECK_NE(slot, kNoSlot);
    std::memcpy(plan.scratch.get() + i * block_size_,
                SlotRef(slot).span().data(), block_size_);
    SetDirty(pages_[slot], false);
  }
  size_t i = 0;
  while (i < plan.lbas.size()) {
    size_t j = i + 1;
    while (j < plan.lbas.size() && plan.lbas[j] == plan.lbas[j - 1] + 1) {
      ++j;
    }
    plan.runs.push_back(ConstBlockRun{
        plan.lbas[i], static_cast<uint32_t>(j - i),
        std::span<const uint8_t>(plan.scratch.get() + i * block_size_,
                                 (j - i) * block_size_)});
    i = j;
  }
  return plan;
}

Task<Status> BufferCache::WritebackRuns(WritebackPlan plan) {
  if (plan.lbas.empty()) {
    co_return OkStatus();
  }
  writeback_runs_->Increment(plan.runs.size());
  writeback_coalesced_blocks_->Increment(plan.lbas.size());
  auto inflight = inflight_.insert(
      inflight_.end(),
      InflightWriteback{plan.lbas.front(), plan.lbas.back()});
  Status status = co_await BackingWriteV(plan.runs);
  inflight_.erase(inflight);
  NotifyInflight();
  if (!status.ok()) {
    // Put the pages back on the dirty list so a later flush retries them.
    for (uint64_t lba : plan.lbas) {
      if (const uint32_t slot = Lookup(lba); slot != kNoSlot) {
        SetDirty(pages_[slot], true);
      }
    }
  }
  co_return status;
}

Task<Status> BufferCache::EvictOne() {
  CHECK_GT(size_, 0u);
  uint32_t slot = probation_.size > 0 ? probation_.tail : protected_.tail;
  const uint64_t victim = pages_[slot].lba;
  if (pages_[slot].dirty) {
    if (OverlapsInflight(victim, 1)) {
      // An older snapshot of this page is already on its way to the device;
      // submitting the new bytes now would race it (the device gives no
      // ordering across submissions). Wait it out; the caller's eviction
      // loop retries.
      co_await AwaitInflight(victim, 1);
      co_return OkStatus();
    }
    // Gather the LBA-contiguous dirty cluster around the victim, walking
    // its neighbours in the dirty index, so one eviction absorbs their
    // write-back too. Neighbours with an older snapshot still in flight
    // stay out (same ordering rule as above).
    auto first = dirty_.find(victim);
    auto last = std::next(first);
    uint32_t count = 1;
    while (count < kWritebackMaxBatch && first != dirty_.begin() &&
           *std::prev(first) == *first - 1 &&
           !OverlapsInflight(*first - 1, 1)) {
      --first;
      ++count;
    }
    while (count < kWritebackMaxBatch && last != dirty_.end() &&
           *last == *std::prev(last) + 1 && !OverlapsInflight(*last, 1)) {
      ++last;
      ++count;
    }
    SOLROS_CO_RETURN_IF_ERROR(
        co_await WritebackRuns(PlanWriteback({first, last})));
    // The write-back suspended; re-resolve the victim, which may have been
    // invalidated (slot already freed), touched, or re-dirtied meanwhile.
    slot = Lookup(victim);
    if (slot == kNoSlot) {
      co_return OkStatus();
    }
    if (pages_[slot].dirty) {
      // Re-dirtied mid-flight: the cached bytes are newer than what just
      // reached the device. Keep the page for a later write-back; the
      // caller's eviction loop picks another victim.
      co_return OkStatus();
    }
  }
  Release(slot);
  evictions_->Increment();
  ++local_evictions_;
  UpdateGauges();
  co_return OkStatus();
}

void BufferCache::CopyHit(uint32_t slot, std::span<uint8_t> out) {
  if (use_ != nullptr) {
    use_->CompleteOp(telemetry_sim_->now(), 0);
  }
  hits_->Increment();
  ++local_hits_;
  Page& page = pages_[slot];
  bool was_readahead = page.readahead;
  if (was_readahead) {
    readahead_hits_->Increment();
    ++local_readahead_hits_;
    page.readahead = false;
  }
  // A readahead page's first demand hit is its first reference, not a
  // reuse — it must not promote (see TouchHit).
  TouchHit(slot, /*promote=*/!was_readahead);
  UpdateGauges();
  std::memcpy(out.data(), SlotRef(slot).span().data(), block_size_);
}

Task<Result<BufferCache::StageCounts>> BufferCache::Stage(
    std::span<const FsExtent> extents, uint64_t demand_blocks,
    uint64_t valid_bytes, std::span<uint8_t> out, IoClass cls,
    TraceContext ctx) {
  // Watch the blocks from the start, so a write or free that lands before
  // a miss run is installed drops it.
  Fill fill(this, extents);
  StageCounts counts;
  uint64_t cursor = 0;  // block index within `out`
  for (const FsExtent& extent : extents) {
    for (uint64_t i = 0; i < extent.len;) {
      const uint64_t lba = extent.start + i;
      const uint64_t index = cursor + i;
      const bool speculative = index >= demand_blocks;
      if (const uint32_t slot = Lookup(lba); slot != kNoSlot) {
        // No copy and no LRU touch for an already-cached readahead block:
        // the stream has not actually reached it yet.
        if (!speculative) {
          CopyHit(slot, out.subspan(index * block_size_, block_size_));
          ++counts.hits;
        }
        ++i;
        continue;
      }
      if (speculative) {
        // A miss run that STARTS in the readahead region means the demand
        // part was already cached — skip the speculative fetch entirely.
        // Readahead I/O only piggybacks on a demand miss, so a fully-cached
        // request costs zero device commands (this is what turns a
        // sequential stream into one command per window instead of one
        // per request).
        ++i;
        continue;
      }
      // Extend the miss run (it may cross from the demand region into the
      // readahead region — that is the point: one device read). The whole
      // run is one request in `cls`: a caller is blocked on its head, and
      // splitting it would cost a second command for a fetch the device
      // could do in one.
      uint64_t run = 1;
      while (i + run < extent.len && !Contains(lba + run)) {
        ++run;
      }
      const uint64_t at = index * block_size_;
      std::span<uint8_t> fetched = out.subspan(at, run * block_size_);
      SOLROS_CO_RETURN_IF_ERROR(co_await BackingRead(
          lba, static_cast<uint32_t>(run), fetched, cls, ctx));
      if (at + fetched.size() > valid_bytes) {
        uint64_t keep = valid_bytes > at ? valid_bytes - at : 0;
        std::memset(fetched.data() + keep, 0, fetched.size() - keep);
      }
      for (uint64_t b = 0; b < run; ++b) {
        const bool readahead = index + b >= demand_blocks;
        if (!fill.stale(lba + b)) {
          SOLROS_CO_RETURN_IF_ERROR(co_await InsertLocked(
              lba + b, fetched.subspan(b * block_size_, block_size_),
              /*dirty=*/false, readahead));
        }
        if (readahead) {
          ++counts.readahead;
        } else {
          ++counts.misses;
        }
      }
      i += run;
    }
    cursor += extent.len;
  }
  misses_->Increment(counts.misses);
  local_misses_ += counts.misses;
  co_return counts;
}

Task<Status> BufferCache::InsertLocked(uint64_t lba,
                                       std::span<const uint8_t> content,
                                       bool dirty, bool readahead) {
  if (content.size() < block_size_) {
    co_return InvalidArgumentError("short page content");
  }
  uint32_t slot = Lookup(lba);
  if (slot == kNoSlot && size_ == capacity_) {
    SOLROS_CO_RETURN_IF_ERROR(co_await EvictOne());
    // EvictOne may suspend (dirty writeback); re-check for a racing insert.
    slot = Lookup(lba);
  }
  if (slot != kNoSlot) {
    if (dirty) {
      // Full-block overwrite of the established page.
      std::memcpy(SlotRef(slot).span().data(), content.data(), block_size_);
      pages_[slot].readahead = false;
      SetDirty(pages_[slot], true);
      TouchHit(slot);
      UpdateGauges();
    }
    co_return OkStatus();
  }
  if (size_ == capacity_) {
    // A racing insert consumed the slot EvictOne freed; make another.
    while (size_ == capacity_) {
      SOLROS_CO_RETURN_IF_ERROR(co_await EvictOne());
    }
    if (const uint32_t raced = Lookup(lba); raced != kNoSlot) {
      if (dirty) {
        std::memcpy(SlotRef(raced).span().data(), content.data(),
                    block_size_);
        pages_[raced].readahead = false;
        SetDirty(pages_[raced], true);
      }
      co_return OkStatus();
    }
  }
  slot = Install(lba, readahead);
  std::memcpy(SlotRef(slot).span().data(), content.data(), block_size_);
  if (dirty) {
    SetDirty(pages_[slot], true);
  }
  if (readahead) {
    readahead_blocks_->Increment();
  }
  UpdateGauges();
  co_return OkStatus();
}

Task<Status> BufferCache::InsertDirty(uint64_t lba,
                                      std::span<const uint8_t> content) {
  co_return co_await InsertLocked(lba, content, /*dirty=*/true,
                                  /*readahead=*/false);
}

void BufferCache::Invalidate(uint64_t lba) {
  TouchFills(lba);
  const uint32_t slot = Lookup(lba);
  if (slot == kNoSlot) {
    return;
  }
  SetDirty(pages_[slot], false);
  Release(slot);
  UpdateGauges();
}

void BufferCache::InvalidateCleanRange(uint64_t lba, uint64_t nblocks) {
  for (uint64_t i = 0; i < nblocks; ++i) {
    const uint32_t slot = Lookup(lba + i);
    if (slot == kNoSlot || !pages_[slot].dirty) {
      Invalidate(lba + i);
    }
  }
}

Task<void> BufferCache::DiscardRange(uint64_t lba, uint64_t nblocks) {
  for (uint64_t i = 0; i < nblocks; ++i) {
    Invalidate(lba + i);
  }
  co_await AwaitInflight(lba, nblocks);
}

void BufferCache::ZeroFrom(uint64_t lba, uint32_t offset) {
  TouchFills(lba);
  if (const uint32_t slot = Lookup(lba); slot != kNoSlot) {
    std::span<uint8_t> page = SlotRef(slot).span();
    std::memset(page.data() + offset, 0, block_size_ - offset);
  }
}

bool BufferCache::Contains(uint64_t lba) const {
  return Lookup(lba) != kNoSlot;
}

Task<Status> BufferCache::Flush() {
  // Loop until nothing is dirty AND nothing is in flight: waiting first
  // keeps us from racing a concurrent submission for the same LBAs, and a
  // failed in-flight write re-marks its pages dirty for the next pass.
  for (;;) {
    if (!inflight_.empty()) {
      co_await AwaitAllInflight();
      continue;
    }
    if (dirty_.empty()) {
      break;
    }
    SOLROS_CO_RETURN_IF_ERROR(co_await WritebackRuns(
        PlanWriteback({dirty_.begin(), dirty_.end()})));
  }
  co_return co_await backing_->Flush();
}

Task<Status> BufferCache::FlushRange(uint64_t lba, uint64_t nblocks) {
  if (nblocks == 0) {
    co_return OkStatus();
  }
  // Loop until the range is clean AND no overlapping write-back is still
  // in flight: PlanWriteback clears dirty bits at snapshot time, so "no
  // dirty pages" alone does not mean the device has the bytes yet — a P2P
  // read issued after a no-wait return here could see stale data. Waiting
  // before snapshotting also ensures we never submit a second write for an
  // LBA whose older snapshot is still in flight. Still a free no-op when
  // nothing overlapping is dirty or in flight.
  for (;;) {
    if (OverlapsInflight(lba, nblocks)) {
      co_await AwaitInflight(lba, nblocks);
      continue;
    }
    std::vector<uint64_t> dirty(dirty_.lower_bound(lba),
                                dirty_.lower_bound(lba + nblocks));
    if (dirty.empty()) {
      co_return OkStatus();
    }
    SOLROS_CO_RETURN_IF_ERROR(
        co_await WritebackRuns(PlanWriteback(std::move(dirty))));
  }
}

}  // namespace solros
