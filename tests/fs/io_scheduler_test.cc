// Host-side NVMe I/O scheduler: single-flight dedup, plugged batching and
// class priority, each exercised against the simulated device's
// doorbell/command accounting.
#include "src/fs/io_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/buffer_cache.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

constexpr uint32_t kBs = 4096;

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu{&sim, host, 48, 1.0, "host-cpu"};
  NvmeDevice nvme{&sim, &fabric, params, nvme_id, MiB(64), &host_cpu};
  NvmeBlockStore store{&nvme, &host_cpu};

  Rig() {
    Faults().DisarmAll();
    // Eight random bytes per Prng call: 64 MiB of flash is 8 M calls.
    Prng prng(7);
    const std::span<uint8_t> raw = nvme.RawFlash();
    for (size_t i = 0; i < raw.size(); i += sizeof(uint64_t)) {
      const uint64_t word = prng.Next();
      std::memcpy(raw.data() + i, &word,
                  std::min(sizeof(word), raw.size() - i));
    }
  }
  ~Rig() { Faults().DisarmAll(); }

  const uint8_t* flash(uint64_t lba) const {
    return const_cast<Rig*>(this)->nvme.RawFlash().data() + lba * kBs;
  }
};

// One scheduled read; records its completion tag and status.
Task<void> TaggedRead(IoScheduler* sched, uint64_t lba, uint32_t nblocks,
                      std::span<uint8_t> out, IoClass cls,
                      std::string tag, std::vector<std::string>* order,
                      std::vector<Status>* statuses, WaitGroup* wg) {
  Status status = co_await sched->Read(lba, nblocks, out, cls);
  order->push_back(std::move(tag));
  statuses->push_back(status);
  wg->Done();
}

Task<void> TaggedWrite(IoScheduler* sched, uint64_t lba, uint32_t nblocks,
                       std::span<const uint8_t> in, IoClass cls,
                       std::string tag, std::vector<std::string>* order,
                       std::vector<Status>* statuses, WaitGroup* wg) {
  const ConstBlockRun run{lba, nblocks, in};
  Status status = co_await sched->WriteV({&run, 1}, cls);
  order->push_back(std::move(tag));
  statuses->push_back(status);
  wg->Done();
}

Task<void> DelayedRead(Nanos delay, IoScheduler* sched, uint64_t lba,
                       std::span<uint8_t> out, WaitGroup* wg,
                       Status* status) {
  co_await Delay(delay);
  *status = co_await sched->Read(lba, 1, out);
  wg->Done();
}

Task<void> DelayedTaggedRead(Nanos delay, IoScheduler* sched, uint64_t lba,
                             std::span<uint8_t> out, std::string tag,
                             std::vector<std::string>* order,
                             std::vector<Status>* statuses, WaitGroup* wg) {
  co_await Delay(delay);
  Status s = co_await sched->Read(lba, 1, out);
  order->push_back(std::move(tag));
  statuses->push_back(s);
  wg->Done();
}

Task<void> DelayedRangeRead(Nanos delay, IoScheduler* sched, uint64_t lba,
                            uint32_t nblocks, std::span<uint8_t> out,
                            WaitGroup* wg, Status* status) {
  co_await Delay(delay);
  *status = co_await sched->Read(lba, nblocks, out);
  wg->Done();
}

TEST(IoSchedulerTest, ConcurrentOverlappingReadsAreSingleFlight) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  constexpr int kCallers = 6;
  std::vector<std::vector<uint8_t>> bufs(kCallers,
                                         std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, TaggedRead(&sched, 42, 1, bufs[i], IoClass::kDemand,
                              std::string("r").append(std::to_string(i)),
                              &order, &statuses, &wg));
  }
  rig.sim.RunUntilIdle();
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kCallers));
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  for (const auto& buf : bufs) {
    EXPECT_EQ(std::memcmp(buf.data(), rig.flash(42), kBs), 0);
  }
  // One command, one doorbell, one interrupt for all six callers.
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u);
  EXPECT_EQ(sched.dedup_hits(), static_cast<uint64_t>(kCallers - 1));
}

TEST(IoSchedulerTest, LateArrivalAttachesToInflightFetch) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs), b(kBs);
  WaitGroup wg(&rig.sim);
  Status sa, sb;
  wg.Add(2);
  Spawn(rig.sim, DelayedRead(0, &sched, 7, a, &wg, &sa));
  // Arrives mid-flight: the plug window is 4us and the device takes ~80us,
  // so at 20us the fetch for LBA 7 is already at the device.
  Spawn(rig.sim, DelayedRead(Microseconds(20), &sched, 7, b, &wg, &sb));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_EQ(std::memcmp(a.data(), rig.flash(7), kBs), 0);
  EXPECT_EQ(std::memcmp(b.data(), rig.flash(7), kBs), 0);
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(sched.dedup_hits(), 1u);
}

TEST(IoSchedulerTest, SharedFetchFailureFailsEveryWaiterCoherently) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  // Every attempt fails, so retries exhaust and the one shared fetch
  // reports an error to every caller attached to it.
  ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::EveryNth(1)).ok());
  constexpr int kCallers = 5;
  std::vector<std::vector<uint8_t>> bufs(kCallers,
                                         std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, TaggedRead(&sched, 13, 1, bufs[i], IoClass::kDemand,
                              std::string("r").append(std::to_string(i)),
                              &order, &statuses, &wg));
  }
  rig.sim.RunUntilIdle();
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kCallers));
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), statuses.front().code());
  }
  EXPECT_EQ(sched.dedup_hits(), static_cast<uint64_t>(kCallers - 1));
}

TEST(IoSchedulerTest, PlugWindowBatchesStaggeredArrivals) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs), b(kBs);
  WaitGroup wg(&rig.sim);
  Status sa, sb;
  wg.Add(2);
  Spawn(rig.sim, DelayedRead(0, &sched, 100, a, &wg, &sa));
  // Inside the 4us plug window, far outside adjacency.
  Spawn(rig.sim, DelayedRead(Microseconds(1), &sched, 5000, b, &wg, &sb));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  // Both requests ride one plugged submission: two commands, one doorbell.
  EXPECT_EQ(rig.nvme.commands_completed(), 2u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
}

TEST(IoSchedulerTest, AdjacentReadsMergeIntoOneCommand) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs), b(kBs);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(2);
  Spawn(rig.sim, TaggedRead(&sched, 11, 1, b, IoClass::kDemand,
                            "hi", &order, &statuses, &wg));
  Spawn(rig.sim, TaggedRead(&sched, 10, 1, a, IoClass::kDemand,
                            "lo", &order, &statuses, &wg));
  rig.sim.RunUntilIdle();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(std::memcmp(a.data(), rig.flash(10), kBs), 0);
  EXPECT_EQ(std::memcmp(b.data(), rig.flash(11), kBs), 0);
  // LBA-sorted and merged: [10,12) is one two-block command.
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(sched.merges(), 1u);
}

TEST(IoSchedulerTest, SharedRunsUseScratchAndLoneRunsLandDirectly) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  // One plugged batch: [10,13) and [12,15) overlap and merge into one
  // command on the batch scratch; [40,41) serves one request alone and is
  // DMA'd straight into its caller's memory. A waiter for [11,14) attaches
  // mid-flight and is served from the merged run's target.
  struct Range {
    uint64_t lba;
    uint32_t nblocks;
    Nanos delay;
  };
  const std::vector<Range> ranges = {
      {10, 3, 0}, {12, 3, 0}, {40, 1, 0}, {11, 3, Microseconds(20)}};
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<Status> statuses(ranges.size());
  WaitGroup wg(&rig.sim);
  for (const Range& r : ranges) {
    bufs.emplace_back(uint64_t{r.nblocks} * kBs);
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    wg.Add(1);
    Spawn(rig.sim, DelayedRangeRead(ranges[i].delay, &sched, ranges[i].lba,
                                    ranges[i].nblocks, bufs[i], &wg,
                                    &statuses[i]));
  }
  rig.sim.RunUntilIdle();
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "read " << i;
    EXPECT_EQ(std::memcmp(bufs[i].data(), rig.flash(ranges[i].lba),
                          bufs[i].size()),
              0)
        << "read " << i;
  }
  EXPECT_EQ(rig.nvme.commands_completed(), 2u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(sched.merges(), 1u);
  EXPECT_EQ(sched.dedup_hits(), 1u);  // the waiter
}

TEST(IoSchedulerTest, AdjacentWritesMergeIntoOneCommand) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs, 0xa1), b(kBs, 0xb2);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(2);
  Spawn(rig.sim, TaggedWrite(&sched, 21, 1, b, IoClass::kWriteback, "hi",
                             &order, &statuses, &wg));
  Spawn(rig.sim, TaggedWrite(&sched, 20, 1, a, IoClass::kWriteback, "lo",
                             &order, &statuses, &wg));
  rig.sim.RunUntilIdle();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.flash(20)[0], 0xa1);
  EXPECT_EQ(rig.flash(21)[0], 0xb2);
  EXPECT_EQ(sched.merges(), 1u);
}

TEST(IoSchedulerTest, PriorityDispatchesDemandBeforeBackground) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> ra(kBs), wb(kBs, 0x33), demand(kBs);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(3);
  // Enqueued worst class first; strict priority must invert the order.
  Spawn(rig.sim, TaggedRead(&sched, 300, 1, ra, IoClass::kReadahead,
                            "readahead", &order, &statuses, &wg));
  Spawn(rig.sim, TaggedWrite(&sched, 200, 1, wb, IoClass::kWriteback,
                             "writeback", &order, &statuses, &wg));
  Spawn(rig.sim, TaggedRead(&sched, 100, 1, demand, IoClass::kDemand,
                            "demand", &order, &statuses, &wg));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 3u);
  // Strict priority inverts arrival order at dispatch: the demand read
  // (enqueued last) goes to the device in the first round and completes
  // before the readahead that arrived first. (Rounds pipeline, so the
  // writeback's completion order depends on device write latency — only
  // the two reads are comparable.)
  auto position = [&](const std::string& tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  EXPECT_LT(position("demand"), position("readahead"));
  EXPECT_EQ(sched.dispatched(IoClass::kDemand), 1u);
  EXPECT_EQ(sched.dispatched(IoClass::kWriteback), 1u);
  EXPECT_EQ(sched.dispatched(IoClass::kReadahead), 1u);
  // Three strict class rounds, not one mixed batch.
  EXPECT_EQ(sched.batches(), 3u);
}

TEST(IoSchedulerTest, StallFaultDelaysButDrainsEveryRequest) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  ASSERT_TRUE(
      Faults().Arm("iosched.stall", FaultSpec::Probability(1.0)).ok());
  std::vector<std::vector<uint8_t>> bufs(12, std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  // Three staggered waves so stalls hit plugged and busy queues alike.
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 4; ++i) {
      int idx = wave * 4 + i;
      wg.Add(1);
      Spawn(rig.sim,
            DelayedTaggedRead(Microseconds(30) * wave, &sched, 50 + 3 * idx,
                              bufs[idx], std::to_string(idx), &order,
                              &statuses, &wg));
    }
  }
  rig.sim.RunUntilIdle();
  // No hang, no lost waiters: every request completed despite the stalls.
  ASSERT_EQ(statuses.size(), 12u);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_GT(sched.stalls(), 0u);
  EXPECT_EQ(wg.outstanding(), 0u);
}

// The duplicate-fetch guarantee at the cache level. N concurrent cold
// Stage calls on one LBA => one device command and N satisfied callers; a
// fault on that one fetch fails all N and caches nothing.
Task<void> StageInto(BufferCache* cache, uint64_t lba,
                     std::vector<uint8_t>* out, int* ok_count,
                     int* fail_count, WaitGroup* wg) {
  const FsExtent extent{lba, 1};
  out->resize(kBs);
  auto staged = co_await cache->Stage({&extent, 1}, 1, kBs, *out,
                                      IoClass::kDemand);
  if (staged.ok()) {
    ++*ok_count;
  } else {
    ++*fail_count;
  }
  wg->Done();
}

TEST(IoSchedulerTest, ConcurrentColdStagesShareOneDeviceFetch) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  BufferCache cache(&rig.store, rig.host, /*capacity_blocks=*/32);
  cache.set_io_scheduler(&sched);
  constexpr int kCallers = 8;
  std::vector<std::vector<uint8_t>> outs(kCallers);
  int ok_count = 0, fail_count = 0;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim,
          StageInto(&cache, 77, &outs[i], &ok_count, &fail_count, &wg));
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(ok_count, kCallers);
  EXPECT_EQ(fail_count, 0);
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  for (const std::vector<uint8_t>& out : outs) {
    EXPECT_EQ(std::memcmp(out.data(), rig.flash(77), kBs), 0);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(77));
}

TEST(IoSchedulerTest, FaultedSharedStageFetchFailsAllCallers) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  BufferCache cache(&rig.store, rig.host, /*capacity_blocks=*/32);
  cache.set_io_scheduler(&sched);
  ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::EveryNth(1)).ok());
  constexpr int kCallers = 8;
  std::vector<std::vector<uint8_t>> outs(kCallers);
  int ok_count = 0, fail_count = 0;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim,
          StageInto(&cache, 77, &outs[i], &ok_count, &fail_count, &wg));
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(ok_count, 0);
  EXPECT_EQ(fail_count, kCallers);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace solros
