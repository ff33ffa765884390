// Allocation budget of the buffer cache: once warm, hits, clean evictions
// with installs, and invalidate-then-reinstall make no heap allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fs/block_store.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/io_scheduler.h"
#include "src/fs/layout.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "tests/base/alloc_count.h"

namespace solros {
namespace {

constexpr uint64_t kCapacity = 32;

Task<void> StageOne(BufferCache* cache, uint64_t lba,
                    std::vector<uint8_t>* out) {
  const FsExtent extent{lba, 1};
  CHECK_OK(co_await cache->Stage({&extent, 1}, 1, out->size(), *out,
                                 IoClass::kDemand));
}

// Each round hits the newest page, installs a new block over a clean
// victim, then drops the new page and installs it again.
Task<void> Rounds(BufferCache* cache, int rounds, uint64_t* next_lba,
                  std::vector<uint8_t>* out) {
  for (int r = 0; r < rounds; ++r) {
    co_await StageOne(cache, *next_lba - 1, out);
    const uint64_t lba = (*next_lba)++;
    co_await StageOne(cache, lba, out);
    co_await cache->DiscardRange(lba, 1);
    co_await StageOne(cache, lba, out);
  }
}

TEST(CacheAllocationTest, WarmCleanCacheMakesNoHeapAllocation) {
  Simulator sim;
  HwParams params;
  PcieFabric fabric(&sim, params);
  MemBlockStore store(4096, 1024);
  BufferCache cache(&store, fabric.HostDevice(0), kCapacity);
  std::vector<uint8_t> out(4096);
  uint64_t next_lba = 0;
  for (; next_lba < kCapacity; ++next_lba) {
    RunSim(sim, StageOne(&cache, next_lba, &out));
  }
  ASSERT_EQ(cache.size(), kCapacity);

  constexpr int kRounds = 64;
  uint64_t allocations = 0;
  for (int phase = 0; phase < 2; ++phase) {
    // The first phase warms the frame pool and every buffer.
    const uint64_t hits = cache.hits();
    const uint64_t evictions = cache.evictions();
    StartCountingAllocations();
    RunSim(sim, Rounds(&cache, kRounds, &next_lba, &out));
    allocations = StopCountingAllocations();
    EXPECT_EQ(cache.hits() - hits, uint64_t{kRounds});
    EXPECT_EQ(cache.evictions() - evictions, uint64_t{kRounds});
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace solros
