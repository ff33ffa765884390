#include "src/fs/buffer_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/block_store.h"
#include "src/fs/io_scheduler.h"
#include "src/fs/layout.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

// Stages `nblocks` blocks from `lba` through `cache`, all of them demanded,
// and returns their bytes.
Task<std::vector<uint8_t>> StageAsync(BufferCache* cache, uint64_t lba,
                                      uint32_t nblocks = 1) {
  const FsExtent extent{lba, nblocks};
  std::vector<uint8_t> out(uint64_t{nblocks} * 4096);
  auto staged = co_await cache->Stage({&extent, 1}, nblocks, out.size(), out,
                                      IoClass::kDemand);
  CHECK_OK(staged);
  co_return out;
}

std::vector<uint8_t> StageBlocks(Simulator& sim, BufferCache& cache,
                                 uint64_t lba, uint32_t nblocks = 1) {
  return RunSim(sim, StageAsync(&cache, lba, nblocks));
}

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest()
      : fabric_(&sim_, params_),
        store_(4096, 1024),
        cache_(&store_, fabric_.HostDevice(0), /*capacity_blocks=*/8) {
    // Seed the store with recognizable block contents.
    Prng prng(1);
    auto raw = store_.raw();
    for (auto& b : raw) {
      b = static_cast<uint8_t>(prng.Next());
    }
  }

  Simulator sim_;
  HwParams params_;
  PcieFabric fabric_;
  MemBlockStore store_;
  BufferCache cache_;
};

TEST_F(BufferCacheTest, MissThenHit) {
  auto first = StageBlocks(sim_, cache_, 5);
  EXPECT_EQ(cache_.misses(), 1u);
  EXPECT_EQ(cache_.hits(), 0u);
  EXPECT_EQ(std::memcmp(first.data(), store_.raw().data() + 5 * 4096, 4096),
            0);
  auto second = StageBlocks(sim_, cache_, 5);
  EXPECT_EQ(cache_.hits(), 1u);
  EXPECT_EQ(second, first);
}

TEST_F(BufferCacheTest, LruEviction) {
  for (uint64_t lba = 0; lba < 8; ++lba) {
    StageBlocks(sim_, cache_, lba);
  }
  EXPECT_EQ(cache_.size(), 8u);
  // Touch block 0 so block 1 becomes LRU.
  StageBlocks(sim_, cache_, 0);
  // Insert a 9th block; block 1 must be evicted.
  StageBlocks(sim_, cache_, 100);
  EXPECT_EQ(cache_.evictions(), 1u);
  EXPECT_TRUE(cache_.Contains(0));
  EXPECT_FALSE(cache_.Contains(1));
}

TEST_F(BufferCacheTest, DirtyPagesFlushOnEviction) {
  CHECK_OK(RunSim(sim_, cache_.InsertDirty(
                            3, std::vector<uint8_t>(4096, 0x77))));
  // Force eviction of block 3 by filling the cache.
  for (uint64_t lba = 10; lba < 19; ++lba) {
    StageBlocks(sim_, cache_, lba);
  }
  EXPECT_FALSE(cache_.Contains(3));
  // The store now holds the dirty content.
  EXPECT_EQ(store_.raw()[3 * 4096], 0x77);
}

TEST_F(BufferCacheTest, FlushWritesAllDirty) {
  CHECK_OK(RunSim(sim_, cache_.InsertDirty(
                            7, std::vector<uint8_t>(4096, 0x42))));
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[7 * 4096], 0x42);
}

TEST_F(BufferCacheTest, StageReadsDirtyPagesBeforeWriteback) {
  std::vector<uint8_t> data(4096, 0xcd);
  CHECK_OK(RunSim(sim_, cache_.InsertDirty(20, data)));
  CHECK_OK(RunSim(sim_, cache_.InsertDirty(21, data)));
  // Staged from the dirty pages, not the device.
  auto out = StageBlocks(sim_, cache_, 20, 2);
  EXPECT_EQ(out, std::vector<uint8_t>(4096 * 2, 0xcd));
  EXPECT_EQ(cache_.hits(), 2u);
  EXPECT_EQ(cache_.misses(), 0u);
  // Store not yet updated (write-back).
  EXPECT_NE(store_.raw()[20 * 4096], 0xcd);
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[20 * 4096], 0xcd);
  EXPECT_EQ(store_.raw()[21 * 4096], 0xcd);
}

TEST_F(BufferCacheTest, InvalidateDropsWithoutWriteback) {
  uint8_t original = store_.raw()[9 * 4096];
  CHECK_OK(RunSim(sim_, cache_.InsertDirty(
                            9, std::vector<uint8_t>(4096, original + 1))));
  RunSim(sim_, cache_.DiscardRange(9, 1));
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[9 * 4096], original);
  EXPECT_FALSE(cache_.Contains(9));
}

TEST_F(BufferCacheTest, InvalidateRangeAndMissingBlocksAreNoops) {
  StageBlocks(sim_, cache_, 30);
  RunSim(sim_, cache_.DiscardRange(29, 4));  // covers 30, ignores absent ones
  EXPECT_FALSE(cache_.Contains(30));
  RunSim(sim_, cache_.DiscardRange(999, 1));  // absent: no-op
  EXPECT_EQ(cache_.size(), 0u);
}

// Counts the backing-store calls the cache makes, so tests can assert how
// write-back batches map to device commands.
class CountingStore : public MemBlockStore {
 public:
  using MemBlockStore::MemBlockStore;
  using Run = std::pair<uint64_t, uint32_t>;  // (lba, nblocks)

  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    ++writes;
    return MemBlockStore::Write(lba, nblocks, in);
  }

  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      bool coalesce) override {
    std::vector<Run>& submitted = submissions.emplace_back();
    for (const ConstBlockRun& run : runs) {
      submitted.emplace_back(run.lba, run.nblocks);
    }
    if (fail_writev) {
      co_return IoError("injected write-back failure");
    }
    co_return co_await MemBlockStore::WriteV(runs, coalesce);
  }

  int writes = 0;  // direct per-run writes (WriteV's default delegates)
  std::vector<std::vector<Run>> submissions;  // each vectored one's runs
  bool fail_writev = false;  // fail vectored submissions, writing nothing
};

// A store whose writes take simulated time, so tests can interleave other
// work with an in-flight write-back.
class SlowStore : public CountingStore {
 public:
  using CountingStore::CountingStore;

  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    co_await Delay(Microseconds(10));
    co_return co_await CountingStore::Write(lba, nblocks, in);
  }

  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      bool coalesce) override {
    co_await Delay(Microseconds(10));
    co_return co_await CountingStore::WriteV(runs, coalesce);
  }
};

class SegmentedCacheTest : public ::testing::Test {
 protected:
  SegmentedCacheTest() : fabric_(&sim_, params_), store_(4096, 1024) {
    Prng prng(2);
    auto raw = store_.raw();
    for (auto& b : raw) {
      b = static_cast<uint8_t>(prng.Next());
    }
  }

  std::vector<uint8_t> Block(uint8_t fill) {
    return std::vector<uint8_t>(4096, fill);
  }

  Simulator sim_;
  HwParams params_;
  PcieFabric fabric_;
  CountingStore store_;
};

TEST_F(SegmentedCacheTest, SecondTouchPromotesAndDemotionKeepsCap) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    StageBlocks(sim_, cache, lba);
  }
  EXPECT_EQ(cache.probation_pages(), 8u);
  EXPECT_EQ(cache.protected_pages(), 0u);
  // Second touch promotes; the protected segment caps at 6 of 8 pages (a
  // 0.75 fraction) and demotes its LRU tail back to probation past that.
  for (uint64_t lba = 0; lba < 7; ++lba) {
    StageBlocks(sim_, cache, lba);
  }
  EXPECT_EQ(cache.protected_pages(), 6u);
  EXPECT_EQ(cache.probation_pages(), 2u);
  EXPECT_EQ(cache.size(), 8u);
}

TEST_F(SegmentedCacheTest, ScanCannotEvictProtectedWorkingSet) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // Hot set: 4 pages, touched twice -> protected.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t lba = 0; lba < 4; ++lba) {
      StageBlocks(sim_, cache, lba);
    }
  }
  EXPECT_EQ(cache.protected_pages(), 4u);
  // A scan 4x the cache size touches each block exactly once.
  for (uint64_t lba = 100; lba < 132; ++lba) {
    StageBlocks(sim_, cache, lba);
  }
  // The scan churned probation only; the hot set survived.
  for (uint64_t lba = 0; lba < 4; ++lba) {
    EXPECT_TRUE(cache.Contains(lba)) << "hot lba " << lba << " was evicted";
  }
}

TEST_F(SegmentedCacheTest, ReadaheadFirstTouchDoesNotPromote) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // Demand block 49 misses; block 50 rides its fetch as readahead.
  const FsExtent extent{49, 2};
  std::vector<uint8_t> out(2 * 4096);
  auto staged = RunSim(sim_, cache.Stage({&extent, 1}, /*demand_blocks=*/1,
                                         out.size(), out, IoClass::kDemand));
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->misses, 1u);
  EXPECT_EQ(staged->readahead, 1u);
  EXPECT_EQ(cache.probation_pages(), 2u);
  // First demand hit consumes the speculation: counted, not promoted —
  // a scan references each prefetched page exactly once and must not be
  // able to flood the protected segment through its readahead fills.
  StageBlocks(sim_, cache, 50);
  EXPECT_EQ(cache.readahead_hits(), 1u);
  EXPECT_EQ(cache.protected_pages(), 0u);
  // The second hit is genuine reuse.
  StageBlocks(sim_, cache, 50);
  EXPECT_EQ(cache.protected_pages(), 1u);
  EXPECT_EQ(cache.readahead_hits(), 1u);
}

TEST_F(SegmentedCacheTest, SpeculativeBlocksAreNeverFetchedAlone) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  StageBlocks(sim_, cache, 60);
  // The demand block hits, so the uncached speculative tail is not fetched
  // and nothing new is installed.
  const FsExtent extent{60, 4};
  std::vector<uint8_t> out(4 * 4096);
  auto staged = RunSim(sim_, cache.Stage({&extent, 1}, /*demand_blocks=*/1,
                                         out.size(), out, IoClass::kDemand));
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->hits, 1u);
  EXPECT_EQ(staged->misses, 0u);
  EXPECT_EQ(staged->readahead, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(SegmentedCacheTest, FetchedBytesPastValidAreZeroed) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // Two blocks of which only the first 100 bytes are valid (the file ends
  // there): the rest is staged and cached as zeros.
  const FsExtent extent{64, 2};
  std::vector<uint8_t> out(2 * 4096, 0xff);
  ASSERT_TRUE(RunSim(sim_, cache.Stage({&extent, 1}, 2, /*valid_bytes=*/100,
                                       out, IoClass::kDemand))
                  .ok());
  EXPECT_EQ(std::memcmp(out.data(), store_.raw().data() + 64 * 4096, 100), 0);
  EXPECT_EQ(out[100], 0);
  EXPECT_EQ(out[2 * 4096 - 1], 0);
  auto cached = StageBlocks(sim_, cache, 65);
  EXPECT_EQ(cached, std::vector<uint8_t>(4096, 0));
}

TEST_F(SegmentedCacheTest, FlushCoalescesSortedDirtyRuns) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // Dirty pages inserted out of order: 12, 10, 20, 11.
  for (uint64_t lba : {12, 10, 20, 11}) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(
                              lba, Block(static_cast<uint8_t>(lba)))));
  }
  EXPECT_EQ(cache.dirty_pages(), 4u);
  CHECK_OK(RunSim(sim_, cache.Flush()));
  // One vectored submission, two contiguous runs: [10..12] and [20].
  ASSERT_EQ(store_.submissions.size(), 1u);
  EXPECT_EQ(store_.submissions[0],
            (std::vector<CountingStore::Run>{{10, 3}, {20, 1}}));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(store_.raw()[10 * 4096], 10);
  EXPECT_EQ(store_.raw()[11 * 4096], 11);
  EXPECT_EQ(store_.raw()[12 * 4096], 12);
  EXPECT_EQ(store_.raw()[20 * 4096], 20);
}

TEST_F(SegmentedCacheTest, EvictionWritesBackTheContiguousDirtyCluster) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // Fill the cache with one contiguous dirty range.
  for (uint64_t lba = 40; lba < 48; ++lba) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(
                              lba, Block(static_cast<uint8_t>(lba)))));
  }
  // Staging a new block evicts one victim — but cleans the whole dirty
  // cluster with a single vectored write.
  StageBlocks(sim_, cache, 200);
  EXPECT_EQ(cache.evictions(), 1u);
  ASSERT_EQ(store_.submissions.size(), 1u);
  EXPECT_EQ(store_.submissions[0],
            (std::vector<CountingStore::Run>{{40, 8}}));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  for (uint64_t lba = 40; lba < 48; ++lba) {
    EXPECT_EQ(store_.raw()[lba * 4096], static_cast<uint8_t>(lba));
  }
}

TEST_F(SegmentedCacheTest, FlushRangeOnlyTouchesTheRange) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  CHECK_OK(RunSim(sim_, cache.InsertDirty(5, Block(5))));
  CHECK_OK(RunSim(sim_, cache.InsertDirty(60, Block(60))));
  CHECK_OK(RunSim(sim_, cache.FlushRange(0, 10)));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  EXPECT_EQ(store_.raw()[5 * 4096], 5);
  EXPECT_NE(store_.raw()[60 * 4096], 60);
  // Clean cache: FlushRange is a free no-op (no store calls).
  size_t calls_before = store_.submissions.size() + store_.writes;
  CHECK_OK(RunSim(sim_, cache.FlushRange(0, 10)));
  EXPECT_EQ(store_.submissions.size() + store_.writes, calls_before);
}

TEST_F(SegmentedCacheTest, FailedFlushKeepsPagesDirtyForOneAscendingRetry) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  for (uint64_t lba : {12, 10, 20, 11}) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(
                              lba, Block(static_cast<uint8_t>(lba)))));
  }
  store_.fail_writev = true;
  EXPECT_FALSE(RunSim(sim_, cache.Flush()).ok());
  // The failed submission put back every page it carried.
  EXPECT_EQ(cache.dirty_pages(), 4u);
  EXPECT_NE(store_.raw()[10 * 4096], 10);
  store_.fail_writev = false;
  CHECK_OK(RunSim(sim_, cache.Flush()));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  // The retry is again one ascending submission of the same runs.
  const std::vector<CountingStore::Run> runs = {{10, 3}, {20, 1}};
  ASSERT_EQ(store_.submissions.size(), 2u);
  EXPECT_EQ(store_.submissions[0], runs);
  EXPECT_EQ(store_.submissions[1], runs);
  for (uint64_t lba : {10, 11, 12, 20}) {
    EXPECT_EQ(store_.raw()[lba * 4096], static_cast<uint8_t>(lba));
  }
}

TEST_F(SegmentedCacheTest, DroppedDirtyPagesAreNeverWrittenBack) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  const std::vector<uint8_t> before(store_.raw().begin(),
                                    store_.raw().end());
  for (uint64_t lba = 30; lba < 36; ++lba) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(lba, Block(0xee))));
  }
  // The free path: drop the freed blocks' pages, then their clean copies
  // across the whole range (dirty ones stay).
  RunSim(sim_, cache.DiscardRange(31, 2));
  RunSim(sim_, cache.DiscardRange(35, 1));
  cache.InvalidateCleanRange(30, 6);
  EXPECT_EQ(cache.dirty_pages(), 3u);
  CHECK_OK(RunSim(sim_, cache.Flush()));
  ASSERT_EQ(store_.submissions.size(), 1u);
  EXPECT_EQ(store_.submissions[0],
            (std::vector<CountingStore::Run>{{30, 1}, {33, 2}}));
  for (uint64_t lba : {31, 32, 35}) {
    EXPECT_EQ(std::memcmp(store_.raw().data() + lba * 4096,
                          before.data() + lba * 4096, 4096),
              0)
        << "dropped lba " << lba << " was written";
  }
}

TEST_F(SegmentedCacheTest, WideFlushRangeWritesOnlyItsDirtyPages) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  for (uint64_t lba : {101, 3, 500, 7, 100, 5}) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(
                              lba, Block(static_cast<uint8_t>(lba)))));
  }
  // A 200-block range over a cache of 6 pages.
  CHECK_OK(RunSim(sim_, cache.FlushRange(4, 200)));
  ASSERT_EQ(store_.submissions.size(), 1u);
  EXPECT_EQ(store_.submissions[0],
            (std::vector<CountingStore::Run>{{5, 1}, {7, 1}, {100, 2}}));
  EXPECT_EQ(cache.dirty_pages(), 2u);  // 3 and 500 lie outside
  CHECK_OK(RunSim(sim_, cache.FlushRange(4, 200)));
  EXPECT_EQ(store_.submissions.size(), 1u);
}

TEST_F(SegmentedCacheTest, RacingStagesShareOnePage) {
  // Two concurrent cold fills of the same block install one page.
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  Spawn(sim_, StageAsync(&cache, 70));
  Spawn(sim_, StageAsync(&cache, 70));
  sim_.RunUntilIdle();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(70));
}

TEST_F(SegmentedCacheTest, InvalidateWhileCoalescedFlushInFlight) {
  SlowStore slow(4096, 1024);
  BufferCache cache(&slow, fabric_.HostDevice(0), 8);
  CHECK_OK(RunSim(sim_, cache.InsertDirty(80, Block(0x11))));
  CHECK_OK(RunSim(sim_, cache.InsertDirty(81, Block(0x22))));
  // Start the flush, then discard one page while the write-back is in
  // flight. The flush snapshotted the content before suspending, so it
  // must neither crash nor lose the other page, and the discard returns
  // only once the in-flight snapshot has landed (so a write that follows
  // it lands after).
  bool flushed = false;
  bool landed_at_discard = false;
  auto flush = [&]() -> Task<void> {
    CHECK_OK(co_await cache.Flush());
    flushed = true;
  };
  auto discard = [&]() -> Task<void> {
    co_await cache.DiscardRange(81, 1);
    landed_at_discard = slow.raw()[81 * 4096] == 0x22;
  };
  Spawn(sim_, flush());
  Spawn(sim_, discard());
  sim_.RunUntilIdle();
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(landed_at_discard);
  EXPECT_FALSE(cache.Contains(81));
  EXPECT_EQ(slow.raw()[80 * 4096], 0x11);
}

TEST_F(SegmentedCacheTest, InsertCleanDuringInFlightReadaheadIsStable) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // A fill that installs block 90 as readahead (riding demand block 89)
  // races a demand fill of block 90.
  auto readahead = [&]() -> Task<void> {
    const FsExtent extent{89, 2};
    std::vector<uint8_t> out(2 * 4096);
    CHECK_OK(co_await cache.Stage({&extent, 1}, /*demand_blocks=*/1,
                                  out.size(), out, IoClass::kReadahead));
  };
  Spawn(sim_, StageAsync(&cache, 90));
  Spawn(sim_, readahead());
  sim_.RunUntilIdle();
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(90));
  // The page is clean either way — never a phantom dirty bit.
  EXPECT_EQ(cache.dirty_pages(), 0u);
}

TEST_F(SegmentedCacheTest, ReDirtiedVictimDuringWritebackIsNotLost) {
  SlowStore slow(4096, 1024);
  BufferCache cache(&slow, fabric_.HostDevice(0), 8);
  for (uint64_t lba = 40; lba < 48; ++lba) {
    CHECK_OK(RunSim(sim_, cache.InsertDirty(
                              lba, Block(static_cast<uint8_t>(lba)))));
  }
  // The fill suspends inside the eviction write-back (SlowStore delays);
  // the overwrite then lands while the victim's old snapshot is in flight.
  auto overwrite = [&]() -> Task<void> {
    CHECK_OK(co_await cache.InsertDirty(40, Block(0x99)));
  };
  Spawn(sim_, StageAsync(&cache, 200));
  Spawn(sim_, overwrite());
  sim_.RunUntilIdle();
  // The re-dirtied page must survive the eviction pass with its new bytes
  // still pending, not be force-evicted with them dropped.
  EXPECT_TRUE(cache.Contains(40));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  EXPECT_EQ(slow.raw()[40 * 4096], 40);  // in-flight snapshot landed
  CHECK_OK(RunSim(sim_, cache.Flush()));
  EXPECT_EQ(slow.raw()[40 * 4096], 0x99);  // ...and the new bytes after it
}

TEST_F(SegmentedCacheTest, FlushRangeWaitsForInFlightWriteback) {
  SlowStore slow(4096, 1024);
  BufferCache cache(&slow, fabric_.HostDevice(0), 8);
  CHECK_OK(RunSim(sim_, cache.InsertDirty(80, Block(0x11))));
  CHECK_OK(RunSim(sim_, cache.InsertDirty(81, Block(0x22))));
  // Flush() clears the dirty bits at snapshot time and suspends in the
  // device write; a concurrent FlushRange must not conclude "nothing
  // dirty, range durable" until that write actually lands.
  auto flush = [&]() -> Task<void> { CHECK_OK(co_await cache.Flush()); };
  bool range_flushed = false;
  bool durable_at_return = false;
  auto flush_range = [&]() -> Task<void> {
    CHECK_OK(co_await cache.FlushRange(80, 2));
    range_flushed = true;
    durable_at_return =
        slow.raw()[80 * 4096] == 0x11 && slow.raw()[81 * 4096] == 0x22;
  };
  Spawn(sim_, flush());
  Spawn(sim_, flush_range());
  sim_.RunUntilIdle();
  EXPECT_TRUE(range_flushed);
  EXPECT_TRUE(durable_at_return);
}

// Reference 2Q policy for a 16-page cache, kept apart from BufferCache's own
// structures: MRU-first segment lists and each page's dirty and readahead
// bits, over a store whose I/O never suspends.
struct ReferenceCache {
  static constexpr size_t kCapacity = 16;
  static constexpr size_t kProtectedCap = 12;  // 0.75 of the capacity
  struct Page {
    bool dirty = false;
    bool readahead = false;
  };
  std::list<uint64_t> probation, protect;
  std::map<uint64_t, Page> pages;

  bool Contains(uint64_t lba) const { return pages.contains(lba); }
  void Remove(uint64_t lba) {
    probation.remove(lba);
    protect.remove(lba);
    pages.erase(lba);
  }
  void Touch(uint64_t lba, bool promote) {
    const bool hot =
        std::find(protect.begin(), protect.end(), lba) != protect.end();
    std::list<uint64_t>& from = hot ? protect : probation;
    from.remove(lba);
    (hot || !promote ? from : protect).push_front(lba);
    if (protect.size() > kProtectedCap) {
      probation.push_front(protect.back());
      protect.pop_back();
    }
  }
  void Install(uint64_t lba, bool dirty, bool readahead) {
    if (pages.size() == kCapacity) {
      const uint64_t victim =
          probation.empty() ? protect.back() : probation.back();
      if (pages[victim].dirty) {
        // Its write-back cleans the LBA-contiguous dirty run around it.
        uint64_t l = victim;
        while (Contains(l - 1) && pages[l - 1].dirty) {
          --l;
        }
        for (; Contains(l) && pages[l].dirty; ++l) {
          pages[l].dirty = false;
        }
      }
      Remove(victim);
    }
    probation.push_front(lba);
    pages[lba] = Page{dirty, readahead};
  }
  void Stage(uint64_t lba, uint64_t n, uint64_t demand) {
    for (uint64_t i = 0; i < n;) {
      if (Contains(lba + i) && i < demand) {
        const bool readahead = std::exchange(pages[lba + i].readahead, false);
        Touch(lba + i, /*promote=*/!readahead);
      }
      if (Contains(lba + i) || i >= demand) {
        ++i;
        continue;
      }
      uint64_t run = 1;
      while (i + run < n && !Contains(lba + i + run)) {
        ++run;
      }
      for (uint64_t b = i; b < i + run; ++b) {
        Install(lba + b, /*dirty=*/false, /*readahead=*/b >= demand);
      }
      i += run;
    }
  }
  void InsertDirty(uint64_t lba) {
    if (!Contains(lba)) {
      Install(lba, /*dirty=*/true, /*readahead=*/false);
      return;
    }
    pages[lba] = Page{/*dirty=*/true, /*readahead=*/false};
    Touch(lba, /*promote=*/true);
  }
  size_t dirty_pages() const {
    return static_cast<size_t>(std::count_if(
        pages.begin(), pages.end(), [](const auto& p) { return p.second.dirty; }));
  }
};

TEST_F(SegmentedCacheTest, MatchesReferenceModel) {
  constexpr uint64_t kLbas = 64;
  BufferCache cache(&store_, fabric_.HostDevice(0),
                    ReferenceCache::kCapacity);
  ReferenceCache model;
  Prng prng(28);
  // Half the traffic goes to a hot set of 12 LBAs, so pages see second
  // touches, promotions and demotions as well as scan churn.
  auto pick = [&]() {
    return prng.NextBool(0.5) ? prng.NextBelow(12) : prng.NextBelow(kLbas);
  };
  for (int op = 0; op < 3000; ++op) {
    const uint64_t roll = prng.NextBelow(100);
    const uint64_t lba = pick();
    const uint64_t n = std::min<uint64_t>(prng.NextInRange(1, 6), kLbas - lba);
    if (roll < 50) {
      // A demanded head with a readahead tail.
      const uint64_t demand = prng.NextInRange(1, n);
      const FsExtent extent{lba, static_cast<uint32_t>(n)};
      std::vector<uint8_t> out(n * 4096);
      ASSERT_TRUE(RunSim(sim_, cache.Stage({&extent, 1}, demand, out.size(),
                                           out, IoClass::kDemand))
                      .ok());
      model.Stage(lba, n, demand);
    } else if (roll < 75) {
      CHECK_OK(RunSim(sim_, cache.InsertDirty(lba, Block(0x5a))));
      model.InsertDirty(lba);
    } else if (roll < 85) {
      RunSim(sim_, cache.DiscardRange(lba, n));
      for (uint64_t b = lba; b < lba + n; ++b) {
        model.Remove(b);
      }
    } else if (roll < 95) {
      cache.InvalidateCleanRange(lba, n);
      for (uint64_t b = lba; b < lba + n; ++b) {
        if (model.Contains(b) && !model.pages[b].dirty) {
          model.Remove(b);
        }
      }
    } else {
      CHECK_OK(RunSim(sim_, cache.Flush()));
      for (auto& [l, page] : model.pages) {
        page.dirty = false;
      }
    }
    for (uint64_t l = 0; l < kLbas; ++l) {
      ASSERT_EQ(cache.Contains(l), model.Contains(l))
          << "lba " << l << " after op " << op;
    }
    ASSERT_EQ(cache.protected_pages(), model.protect.size()) << "op " << op;
    ASSERT_EQ(cache.probation_pages(), model.probation.size()) << "op " << op;
    ASSERT_EQ(cache.dirty_pages(), model.dirty_pages()) << "op " << op;
  }
  // The mix reached every path the model pins.
  EXPECT_GT(cache.evictions(), 1000u);
  EXPECT_GT(cache.readahead_hits(), 50u);
  EXPECT_GT(cache.hits(), 1000u);
}

TEST_F(SegmentedCacheTest, AccessorsAreInstanceLocal) {
  // Two live caches share the process-global metric counters; each
  // instance's accessors must still report only its own traffic.
  BufferCache a(&store_, fabric_.HostDevice(0), 8);
  BufferCache b(&store_, fabric_.HostDevice(0), 8);
  StageBlocks(sim_, a, 5);
  StageBlocks(sim_, a, 5);
  EXPECT_EQ(a.misses(), 1u);
  EXPECT_EQ(a.hits(), 1u);
  EXPECT_EQ(b.misses(), 0u);
  EXPECT_EQ(b.hits(), 0u);
}

}  // namespace
}  // namespace solros
