#include "src/sim/resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

Task<void> UseFor(MultiServerResource* res, Nanos d,
                  std::vector<SimTime>* ends) {
  Simulator* sim = co_await CurrentSimulator();
  co_await res->Use(d);
  ends->push_back(sim->now());
}

// A FIFO server is the one-server MultiServerResource.
TEST(FifoResourceTest, SerializesConcurrentUsers) {
  Simulator sim;
  MultiServerResource res(&sim, 1);
  std::vector<SimTime> ends;
  for (int i = 0; i < 3; ++i) {
    Spawn(sim, UseFor(&res, Microseconds(10), &ends));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], Microseconds(10));
  EXPECT_EQ(ends[1], Microseconds(20));
  EXPECT_EQ(ends[2], Microseconds(30));
  EXPECT_EQ(res.total_busy_time(), Microseconds(30));
  EXPECT_EQ(res.use_count(), 3u);
}

TEST(FifoResourceTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  MultiServerResource res(&sim, 1);
  std::vector<SimTime> ends;
  auto late_user = [](MultiServerResource* r,
                      std::vector<SimTime>* e) -> Task<void> {
    co_await Delay(Microseconds(100));
    Simulator* sim = co_await CurrentSimulator();
    co_await r->Use(Microseconds(5));
    e->push_back(sim->now());
  };
  Spawn(sim, UseFor(&res, Microseconds(10), &ends));
  Spawn(sim, late_user(&res, &ends));
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], Microseconds(10));
  EXPECT_EQ(ends[1], Microseconds(105));  // starts fresh at 100
}

TEST(MultiServerResourceTest, ParallelismUpToServerCount) {
  Simulator sim;
  MultiServerResource res(&sim, 4);
  std::vector<SimTime> ends;
  for (int i = 0; i < 8; ++i) {
    Spawn(sim, UseFor(&res, Microseconds(10), &ends));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 8u);
  // First four finish at 10us, next four at 20us.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ends[i], Microseconds(10));
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(ends[i], Microseconds(20));
  }
}

// Arrives at `at`, holds a server for `d`, and records its completion time.
Task<void> ArriveAndUse(MultiServerResource* res, Nanos at, Nanos d,
                        SimTime* end) {
  Simulator* sim = co_await CurrentSimulator();
  co_await Delay(at);
  co_await res->Use(d);
  *end = sim->now();
}

// Each reservation takes the server that frees up first, starting no earlier
// than its arrival. Staggered arrivals with mixed lengths pin every pick.
TEST(MultiServerResourceTest, StaggeredMixedReservationsTakeEarliestServer) {
  Simulator sim;
  MultiServerResource res(&sim, 4);
  struct Use {
    Nanos at;
    Nanos d;
    SimTime want;  // completion time
  };
  const std::vector<Use> uses = {
      {0, 10, 10},   // server ends {10, 0, 0, 0}
      {0, 30, 30},   // {10, 30, 0, 0}
      {0, 5, 5},     // {10, 30, 5, 0}
      {1, 20, 21},   // {10, 30, 5, 21}
      {2, 7, 12},    // waits for the 5: {10, 30, 12, 21}
      {3, 4, 14},    // waits for the 10: {14, 30, 12, 21}
      {3, 50, 62},   // waits for the 12: {14, 30, 62, 21}
      {40, 1, 41},   // all idle but one: starts on arrival
      {40, 2, 42},
      {40, 3, 43},
      {40, 6, 47},   // waits for the 41
      {40, 8, 50},   // waits for the 42
      {40, 9, 52},   // waits for the 43
  };
  std::vector<SimTime> ends(uses.size());
  for (size_t i = 0; i < uses.size(); ++i) {
    Spawn(sim, ArriveAndUse(&res, Microseconds(uses[i].at),
                            Microseconds(uses[i].d), &ends[i]));
  }
  sim.RunUntilIdle();
  for (size_t i = 0; i < uses.size(); ++i) {
    EXPECT_EQ(ends[i], Microseconds(uses[i].want)) << "use " << i;
  }
  EXPECT_EQ(res.use_count(), uses.size());
  EXPECT_EQ(res.total_busy_time(), Microseconds(155));
}

// Reference model: the pool as a min-heap of every server's reservation
// end, idle servers included. Each pick takes the earliest end and starts
// at max(now, that end).
class AllServersPool {
 public:
  explicit AllServersPool(size_t servers) : ends_(servers, 0) {}

  SimTime Reserve(SimTime now, Nanos duration) {
    std::pop_heap(ends_.begin(), ends_.end(), std::greater<>());
    const SimTime end = std::max(now, ends_.back()) + duration;
    ends_.back() = end;
    std::push_heap(ends_.begin(), ends_.end(), std::greater<>());
    busy_time_ += duration;
    ++uses_;
    return end;
  }

  Nanos total_busy_time() const { return busy_time_; }
  uint64_t use_count() const { return uses_; }

 private:
  std::vector<SimTime> ends_;
  Nanos busy_time_ = 0;
  uint64_t uses_ = 0;
};

// Seeded random arrivals against the reference model: bursts at one
// instant, short and long idle gaps, and durations that include 0. Every
// returned end and both counters must match.
TEST(MultiServerResourceTest, MatchesAllServersReferenceModel) {
  for (size_t servers : {1u, 2u, 8u, 96u, 244u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "servers=" << servers
                                      << " seed=" << seed);
      Simulator sim;
      MultiServerResource pool(&sim, servers);
      AllServersPool reference(servers);
      Prng prng(seed * 1000 + servers);
      SimTime now = 0;
      for (int i = 0; i < 20000; ++i) {
        const uint64_t gap_kind = prng.NextBelow(8);
        if (gap_kind == 0) {
          // A long idle gap, in which the queued reservations may all end.
          now += prng.NextInRange(1, 2000 * servers);
        } else if (gap_kind <= 3) {
          now += prng.NextInRange(1, 400);
        }  // else: another arrival at the same instant
        const Nanos duration =
            prng.NextBelow(6) == 0 ? 0 : prng.NextInRange(1, 2000);
        sim.RunUntil(now);
        ASSERT_EQ(sim.now(), now);
        ASSERT_EQ(pool.Reserve(duration), reference.Reserve(now, duration))
            << "reservation " << i;
      }
      EXPECT_EQ(pool.total_busy_time(), reference.total_busy_time());
      EXPECT_EQ(pool.use_count(), reference.use_count());
      EXPECT_EQ(pool.server_count(), servers);
    }
  }
}

Task<void> ComputeFor(Processor* cpu, Nanos reference_ns) {
  co_await cpu->Compute(reference_ns);
}

Task<void> ComputeAt(Processor* cpu, Nanos at, Nanos reference_ns) {
  co_await Delay(at);
  co_await cpu->Compute(reference_ns);
}

// The reported thread count is the pool size whether no thread, every
// thread or one thread is busy.
TEST(MultiServerResourceTest, ProcessorReportsPoolSizeAfterBurst) {
  Simulator sim;
  Processor cpu(&sim, DeviceId{0}, 244, 0.125, "phi");
  EXPECT_EQ(cpu.hw_threads(), 244);
  for (int i = 0; i < 300; ++i) {
    Spawn(sim, ComputeFor(&cpu, Microseconds(1)));
  }
  sim.RunUntil(Microseconds(4));
  EXPECT_EQ(cpu.hw_threads(), 244);
  sim.RunUntilIdle();
  // 244 run at once for 8 us each; the other 56 wait for a free thread.
  EXPECT_EQ(sim.now(), Microseconds(16));
  EXPECT_EQ(cpu.hw_threads(), 244);
  // A lone charge after an idle gap finds every thread free.
  Spawn(sim, ComputeAt(&cpu, Microseconds(100), Microseconds(1)));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), Microseconds(124));
  EXPECT_EQ(cpu.total_busy_time(), Microseconds(8) * 301);
  EXPECT_EQ(cpu.hw_threads(), 244);
}

TEST(BandwidthResourceTest, TransferTimeMatchesRate) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1), /*latency=*/0);
  RunSim(sim, link.Transfer(MiB(1)));
  // 1 MiB at 1 GB/s = 1048576 ns.
  EXPECT_EQ(sim.now(), 1048576u);
  EXPECT_EQ(link.bytes_moved(), MiB(1));
}

TEST(BandwidthResourceTest, LatencyAddsAfterTransfer) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1), Microseconds(5));
  RunSim(sim, link.Transfer(1000));
  EXPECT_EQ(sim.now(), 1000u + Microseconds(5));
  EXPECT_EQ(link.TimeFor(1000), 1000u + Microseconds(5));
}

Task<void> TransferTask(BandwidthResource* link, uint64_t bytes,
                        WaitGroup* wg) {
  co_await link->Transfer(bytes);
  wg->Done();
}

TEST(BandwidthResourceTest, ConcurrentTransfersShareLink) {
  Simulator sim;
  BandwidthResource link(&sim, MBps(100));
  WaitGroup wg(&sim);
  for (int i = 0; i < 10; ++i) {
    wg.Add(1);
    Spawn(sim, TransferTask(&link, 1'000'000, &wg));
  }
  sim.RunUntilIdle();
  // 10 MB total at 100 MB/s = 100 ms regardless of interleaving.
  EXPECT_EQ(sim.now(), Milliseconds(100));
  EXPECT_EQ(wg.outstanding(), 0u);
}

TEST(BandwidthResourceTest, ZeroByteTransferIsFree) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1));
  RunSim(sim, link.Transfer(0));
  EXPECT_EQ(sim.now(), 0u);
}

}  // namespace
}  // namespace solros
