#include "src/fs/buffer_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/block_store.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

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
  auto ref1 = RunSim(sim_, cache_.GetBlock(5));
  ASSERT_TRUE(ref1.ok());
  EXPECT_EQ(cache_.misses(), 1u);
  EXPECT_EQ(cache_.hits(), 0u);
  EXPECT_EQ(std::memcmp(ref1->span().data(), store_.raw().data() + 5 * 4096,
                        4096),
            0);
  auto ref2 = RunSim(sim_, cache_.GetBlock(5));
  ASSERT_TRUE(ref2.ok());
  EXPECT_EQ(cache_.hits(), 1u);
}

TEST_F(BufferCacheTest, LruEviction) {
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(RunSim(sim_, cache_.GetBlock(lba)).ok());
  }
  EXPECT_EQ(cache_.size(), 8u);
  // Touch block 0 so block 1 becomes LRU.
  ASSERT_TRUE(RunSim(sim_, cache_.GetBlock(0)).ok());
  // Insert a 9th block; block 1 must be evicted.
  ASSERT_TRUE(RunSim(sim_, cache_.GetBlock(100)).ok());
  EXPECT_EQ(cache_.evictions(), 1u);
  EXPECT_TRUE(cache_.Contains(0));
  EXPECT_FALSE(cache_.Contains(1));
}

TEST_F(BufferCacheTest, DirtyPagesFlushOnEviction) {
  auto ref = RunSim(sim_, cache_.GetBlock(3));
  ASSERT_TRUE(ref.ok());
  std::memset(ref->span().data(), 0x77, 4096);
  cache_.MarkDirty(3);
  // Force eviction of block 3 by filling the cache.
  for (uint64_t lba = 10; lba < 19; ++lba) {
    ASSERT_TRUE(RunSim(sim_, cache_.GetBlock(lba)).ok());
  }
  EXPECT_FALSE(cache_.Contains(3));
  // The store now holds the dirty content.
  EXPECT_EQ(store_.raw()[3 * 4096], 0x77);
}

TEST_F(BufferCacheTest, FlushWritesAllDirty) {
  auto ref = RunSim(sim_, cache_.GetBlock(7));
  ASSERT_TRUE(ref.ok());
  std::memset(ref->span().data(), 0x42, 4096);
  cache_.MarkDirty(7);
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[7 * 4096], 0x42);
}

TEST_F(BufferCacheTest, ReadThroughAndWriteThrough) {
  std::vector<uint8_t> data(4096 * 2, 0xcd);
  CHECK_OK(RunSim(sim_, cache_.WriteThrough(20, 2, data)));
  std::vector<uint8_t> out(4096 * 2);
  CHECK_OK(RunSim(sim_, cache_.ReadThrough(20, 2, out)));
  EXPECT_EQ(out, data);
  // Store not yet updated (write-back).
  EXPECT_NE(store_.raw()[20 * 4096], 0xcd);
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[20 * 4096], 0xcd);
}

TEST_F(BufferCacheTest, InvalidateDropsWithoutWriteback) {
  auto ref = RunSim(sim_, cache_.GetBlock(9));
  ASSERT_TRUE(ref.ok());
  uint8_t original = store_.raw()[9 * 4096];
  std::memset(ref->span().data(), original + 1, 4096);
  cache_.MarkDirty(9);
  cache_.Invalidate(9);
  CHECK_OK(RunSim(sim_, cache_.Flush()));
  EXPECT_EQ(store_.raw()[9 * 4096], original);
  EXPECT_FALSE(cache_.Contains(9));
}

TEST_F(BufferCacheTest, InvalidateRangeAndMissingBlocksAreNoops) {
  ASSERT_TRUE(RunSim(sim_, cache_.GetBlock(30)).ok());
  cache_.InvalidateRange(29, 4);  // covers 30, ignores absent ones
  EXPECT_FALSE(cache_.Contains(30));
  cache_.Invalidate(999);  // absent: no-op
}

// Counts the backing-store calls the cache makes, so tests can assert how
// write-back batches map to device commands.
class CountingStore : public MemBlockStore {
 public:
  using MemBlockStore::MemBlockStore;

  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    ++writes;
    return MemBlockStore::Write(lba, nblocks, in);
  }

  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      bool coalesce) override {
    ++writev_calls;
    writev_runs += runs.size();
    return MemBlockStore::WriteV(runs, coalesce);
  }

  int writes = 0;         // direct per-run writes (WriteV's default delegates)
  int writev_calls = 0;   // vectored submissions
  size_t writev_runs = 0; // total contiguous runs across them
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
    ASSERT_TRUE(RunSim(sim_, cache.GetBlock(lba)).ok());
  }
  EXPECT_EQ(cache.probation_pages(), 8u);
  EXPECT_EQ(cache.protected_pages(), 0u);
  // Second touch promotes; the protected segment caps at 6 of 8 pages (a
  // 0.75 fraction) and demotes its LRU tail back to probation past that.
  for (uint64_t lba = 0; lba < 7; ++lba) {
    ASSERT_TRUE(RunSim(sim_, cache.GetBlock(lba)).ok());
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
      ASSERT_TRUE(RunSim(sim_, cache.GetBlock(lba)).ok());
    }
  }
  EXPECT_EQ(cache.protected_pages(), 4u);
  // A scan 4x the cache size touches each block exactly once.
  for (uint64_t lba = 100; lba < 132; ++lba) {
    ASSERT_TRUE(RunSim(sim_, cache.GetBlock(lba)).ok());
  }
  // The scan churned probation only; the hot set survived.
  for (uint64_t lba = 0; lba < 4; ++lba) {
    EXPECT_TRUE(cache.Contains(lba)) << "hot lba " << lba << " was evicted";
  }
}

TEST_F(SegmentedCacheTest, ReadaheadFirstTouchDoesNotPromote) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  CHECK_OK(RunSim(sim_, cache.InsertClean(50, Block(0xaa),
                                          /*readahead=*/true)));
  EXPECT_EQ(cache.probation_pages(), 1u);
  // First demand hit consumes the speculation: counted, not promoted —
  // a scan references each prefetched page exactly once and must not be
  // able to flood the protected segment through its readahead fills.
  ASSERT_TRUE(RunSim(sim_, cache.GetBlock(50)).ok());
  EXPECT_EQ(cache.readahead_hits(), 1u);
  EXPECT_EQ(cache.protected_pages(), 0u);
  // The second hit is genuine reuse.
  ASSERT_TRUE(RunSim(sim_, cache.GetBlock(50)).ok());
  EXPECT_EQ(cache.protected_pages(), 1u);
  EXPECT_EQ(cache.readahead_hits(), 1u);
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
  EXPECT_EQ(store_.writev_calls, 1);
  EXPECT_EQ(store_.writev_runs, 2u);
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
  // Faulting a new block evicts one victim — but cleans the whole dirty
  // cluster with a single vectored write.
  ASSERT_TRUE(RunSim(sim_, cache.GetBlock(200)).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(store_.writev_calls, 1);
  EXPECT_EQ(store_.writev_runs, 1u);
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
  int calls_before = store_.writev_calls + store_.writes;
  CHECK_OK(RunSim(sim_, cache.FlushRange(0, 10)));
  EXPECT_EQ(store_.writev_calls + store_.writes, calls_before);
}

TEST_F(SegmentedCacheTest, RacingGetBlocksShareOnePage) {
  // MemBlockStore completes instantly, so route through a cache whose
  // faults interleave: spawn two concurrent faults for the same block.
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  auto fault = [&](uint64_t lba) -> Task<void> {
    auto ref = co_await cache.GetBlock(lba);
    CHECK(ref.ok());
  };
  Spawn(sim_, fault(70));
  Spawn(sim_, fault(70));
  sim_.RunUntilIdle();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(70));
}

TEST_F(SegmentedCacheTest, InvalidateWhileCoalescedFlushInFlight) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  uint8_t original = store_.raw()[81 * 4096];
  CHECK_OK(RunSim(sim_, cache.InsertDirty(80, Block(0x11))));
  CHECK_OK(RunSim(sim_, cache.InsertDirty(81, Block(0x22))));
  // Start the flush, then invalidate one page before the simulator runs
  // the write-back to completion. The flush snapshotted the content before
  // suspending, so it must neither crash nor lose the other page.
  bool flushed = false;
  auto flush = [&]() -> Task<void> {
    CHECK_OK(co_await cache.Flush());
    flushed = true;
  };
  Spawn(sim_, flush());
  cache.Invalidate(81);
  sim_.RunUntilIdle();
  EXPECT_TRUE(flushed);
  EXPECT_FALSE(cache.Contains(81));
  EXPECT_EQ(store_.raw()[80 * 4096], 0x11);
  // Whether 81's snapshot landed depends on flush/invalidate interleaving;
  // both orders are sound (P2P writers invalidate before overwriting).
  uint8_t now = store_.raw()[81 * 4096];
  EXPECT_TRUE(now == original || now == 0x22);
}

TEST_F(SegmentedCacheTest, InsertCleanDuringInFlightReadaheadIsStable) {
  BufferCache cache(&store_, fabric_.HostDevice(0), 8);
  // A readahead insert races a demand fault for the same block.
  auto insert = [&](uint64_t lba) -> Task<void> {
    CHECK_OK(co_await cache.InsertClean(lba, Block(0x5c),
                                        /*readahead=*/true));
  };
  auto fault = [&](uint64_t lba) -> Task<void> {
    auto ref = co_await cache.GetBlock(lba);
    CHECK(ref.ok());
  };
  Spawn(sim_, fault(90));
  Spawn(sim_, insert(90));
  sim_.RunUntilIdle();
  EXPECT_EQ(cache.size(), 1u);
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
  // The fault suspends inside the eviction write-back (SlowStore delays);
  // the overwrite then lands while the victim's old snapshot is in flight.
  auto fault = [&]() -> Task<void> {
    auto ref = co_await cache.GetBlock(200);
    CHECK(ref.ok());
  };
  auto overwrite = [&]() -> Task<void> {
    CHECK_OK(co_await cache.InsertDirty(40, Block(0x99)));
  };
  Spawn(sim_, fault());
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

TEST_F(SegmentedCacheTest, AccessorsAreInstanceLocal) {
  // Two live caches share the process-global metric counters; each
  // instance's accessors must still report only its own traffic.
  BufferCache a(&store_, fabric_.HostDevice(0), 8);
  BufferCache b(&store_, fabric_.HostDevice(0), 8);
  ASSERT_TRUE(RunSim(sim_, a.GetBlock(5)).ok());
  ASSERT_TRUE(RunSim(sim_, a.GetBlock(5)).ok());
  EXPECT_EQ(a.misses(), 1u);
  EXPECT_EQ(a.hits(), 1u);
  EXPECT_EQ(b.misses(), 0u);
  EXPECT_EQ(b.hits(), 0u);
}

}  // namespace
}  // namespace solros
