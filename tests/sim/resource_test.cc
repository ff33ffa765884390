#include "src/sim/resource.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/units.h"
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
