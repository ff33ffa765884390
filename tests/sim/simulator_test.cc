#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "src/base/units.h"
#include "src/sim/task.h"

namespace solros {
namespace {

// Schedules `task` as a root process whose first step runs at `when`: one
// event, as Spawn schedules one at now. Returns the frame's handle.
std::coroutine_handle<> StartAt(Simulator& sim, SimTime when,
                                Task<void> task) {
  auto handle = task.Release();
  handle.promise().set_sim(&sim);
  handle.promise().set_detached();
  sim.ResumeAt(when, handle);
  return handle;
}

Task<void> Push(std::vector<int>* order, int value) {
  order->push_back(value);
  co_return;
}

Task<void> Count(int* fired) {
  ++*fired;
  co_return;
}

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  StartAt(sim, Microseconds(30), Push(&order, 3));
  StartAt(sim, Microseconds(10), Push(&order, 1));
  StartAt(sim, Microseconds(20), Push(&order, 2));
  EXPECT_EQ(sim.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Microseconds(30));
}

TEST(SimulatorTest, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    StartAt(sim, Microseconds(5), Push(&order, i));
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

Task<void> CountTwice(int* fired) {
  ++*fired;
  co_await Delay(10);
  ++*fired;
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  StartAt(sim, 10, CountTwice(&fired));
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
}

Task<void> ResumeInPast(Simulator* sim, SimTime* seen) {
  co_await WakeAt{5};  // 5 < now (100)
  *seen = sim->now();
}

TEST(SimulatorTest, ResumeAtInPastClampsToNow) {
  Simulator sim;
  SimTime seen = ~0ull;
  StartAt(sim, 100, ResumeInPast(&sim, &seen));
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  StartAt(sim, 10, Count(&fired));
  StartAt(sim, 20, Count(&fired));
  StartAt(sim, 30, Count(&fired));
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(sim.now(), Seconds(1));
}

Task<void> TickForever() {
  for (;;) {
    co_await Delay(1);
  }
}

TEST(SimulatorTest, MaxEventsBoundsRunUntilIdle) {
  Simulator sim;
  // A self-perpetuating event chain.
  std::coroutine_handle<> tick = StartAt(sim, 1, TickForever());
  EXPECT_EQ(sim.RunUntilIdle(1000), 1000u);
  EXPECT_GT(sim.pending_events(), 0u);
  tick.destroy();  // never finishes; the simulator does not run again
}

Task<void> SpawnAtNow(Simulator* sim, std::vector<int>* order) {
  order->push_back(1);
  Spawn(*sim, Push(order, 2));
  order->push_back(3);
  co_return;
}

TEST(SimulatorTest, ZeroDelayPostRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  StartAt(sim, 10, SpawnAtNow(&sim, &order));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

Task<void> PushAt(SimTime when, std::vector<int>* order, int value) {
  co_await WakeAt{when};
  order->push_back(value);
}

// Pushes `value`, then posts Push(`then`) at now when `then` is set.
Task<void> PushThenPost(Simulator* sim, std::vector<int>* order, int value,
                        int then = -1) {
  order->push_back(value);
  if (then >= 0) {
    Spawn(*sim, Push(order, then));
  }
  co_return;
}

TEST(SimulatorTest, LanePostRunsAfterHeapEventsDueNow) {
  Simulator sim;
  std::vector<int> order;
  // The poster is scheduled first; a second event due at the same time is
  // scheduled after it, and a third is scheduled at 5 for 10. The zero-delay
  // post the poster makes at 10 still runs after both.
  StartAt(sim, 10, PushThenPost(&sim, &order, 1, /*then=*/4));
  StartAt(sim, 10, Push(&order, 2));
  StartAt(sim, 5, PushAt(10, &order, 3));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 10u);
}

Task<void> PostTwo(Simulator* sim, std::vector<int>* order) {
  Spawn(*sim, PushThenPost(sim, order, 1, /*then=*/3));
  Spawn(*sim, PushThenPost(sim, order, 2, /*then=*/4));
  co_return;
}

TEST(SimulatorTest, LanePostsFromLaneEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  StartAt(sim, 10, PostTwo(&sim, &order));
  StartAt(sim, 11, Push(&order, 5));
  EXPECT_EQ(sim.RunUntilIdle(), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

Task<void> PostThree(Simulator* sim, int* fired) {
  for (int i = 0; i < 3; ++i) {
    Spawn(*sim, Count(fired));
  }
  co_return;
}

TEST(SimulatorTest, PendingEventsCountsTheLane) {
  Simulator sim;
  int fired = 0;
  StartAt(sim, 10, PostThree(&sim, &fired));
  StartAt(sim, 20, Count(&fired));
  EXPECT_EQ(sim.RunUntilIdle(1), 1u);
  // Three lane posts plus the heap event at 20.
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RunUntilCountsAndBoundsLaneEvents) {
  Simulator sim;
  int fired = 0;
  StartAt(sim, 10, PostThree(&sim, &fired));
  StartAt(sim, 20, Count(&fired));
  EXPECT_EQ(sim.RunUntilIdle(2), 2u);  // the poster and one lane post
  EXPECT_EQ(sim.pending_events(), 3u);
  // The rest of the lane is due at 10; the heap event at 20 is not.
  EXPECT_EQ(sim.RunUntil(15), 2u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 15u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.RunUntil(20), 1u);
  EXPECT_EQ(fired, 4);
}

Task<void> YieldForever() {
  for (;;) {
    co_await WakeAt{0};  // in the past: a zero-delay post
  }
}

TEST(SimulatorTest, MaxEventsBoundsLaneEvents) {
  Simulator sim;
  std::coroutine_handle<> loop = StartAt(sim, 7, YieldForever());
  EXPECT_EQ(sim.RunUntilIdle(1000), 1000u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.now(), 7u);
  loop.destroy();  // never finishes; the simulator does not run again
}

}  // namespace
}  // namespace solros
