// Determinism guarantees: identical runs produce bit-identical event
// sequences and final times — the property EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

// A mixed workload: random delays, semaphore contention, channel traffic.
struct TraceEntry {
  int actor;
  SimTime when;
  bool operator==(const TraceEntry&) const = default;
};

Task<void> Actor(int id, uint64_t seed, Semaphore* sem,
                 Channel<int>* channel, std::vector<TraceEntry>* trace,
                 WaitGroup* wg, WaitGroup* producers) {
  Simulator* sim = co_await CurrentSimulator();
  Prng prng(seed);
  for (int i = 0; i < 50; ++i) {
    co_await Delay(prng.NextInRange(1, Microseconds(20)));
    co_await sem->Acquire();
    trace->push_back({id, sim->now()});
    co_await Delay(prng.NextInRange(1, Microseconds(5)));
    sem->Release();
    if (id % 2 == 0) {
      co_await channel->Send(id * 1000 + i);
    } else {
      auto got = co_await channel->Receive();
      if (!got.has_value()) {
        break;
      }
    }
  }
  if (id % 2 == 0) {
    producers->Done();
  }
  wg->Done();
}

Task<void> CloseWhenProducersFinish(Channel<int>* channel,
                                    WaitGroup* producers) {
  co_await producers->Wait();
  channel->Close();
}

std::pair<std::vector<TraceEntry>, SimTime> RunOnce(uint64_t seed) {
  Simulator sim;
  Semaphore sem(&sim, 3);
  Channel<int> channel(&sim, 8);
  std::vector<TraceEntry> trace;
  WaitGroup wg(&sim);
  WaitGroup producers(&sim);
  for (int a = 0; a < 8; ++a) {
    wg.Add(1);
    if (a % 2 == 0) {
      producers.Add(1);
    }
    Spawn(sim, Actor(a, seed + a, &sem, &channel, &trace, &wg, &producers));
  }
  Spawn(sim, CloseWhenProducersFinish(&channel, &producers));
  sim.RunUntilIdle();
  return {trace, sim.now()};
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto [trace1, end1] = RunOnce(11);
  auto [trace2, end2] = RunOnce(11);
  EXPECT_EQ(end1, end2);
  ASSERT_EQ(trace1.size(), trace2.size());
  for (size_t i = 0; i < trace1.size(); ++i) {
    EXPECT_EQ(trace1[i].actor, trace2[i].actor) << i;
    EXPECT_EQ(trace1[i].when, trace2[i].when) << i;
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto [trace1, end1] = RunOnce(11);
  auto [trace2, end2] = RunOnce(12);
  EXPECT_NE(end1, end2);
}

Task<void> ResourceUser(MultiServerResource* res, Nanos d, WaitGroup* wg) {
  co_await res->Use(d);
  wg->Done();
}

TEST(DeterminismTest, ResourceTotalsAreExact) {
  // Busy-time accounting must equal the sum of requested durations
  // regardless of interleaving.
  Simulator sim;
  MultiServerResource res(&sim, 1);
  WaitGroup wg(&sim);
  Prng prng(5);
  Nanos expected = 0;
  for (int i = 0; i < 100; ++i) {
    Nanos d = prng.NextInRange(1, Microseconds(10));
    expected += d;
    wg.Add(1);
    Spawn(sim, ResourceUser(&res, d, &wg));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(res.total_busy_time(), expected);
  EXPECT_EQ(res.use_count(), 100u);
  // A single FIFO server finishing back-to-back work ends exactly at the
  // sum of durations.
  EXPECT_EQ(sim.now(), expected);
}

}  // namespace
}  // namespace solros
