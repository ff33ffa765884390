#include "src/sim/task.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace solros {
namespace {

Task<int> ReturnAfter(Nanos delay, int value) {
  co_await Delay(delay);
  co_return value;
}

TEST(TaskTest, RunSimReturnsValue) {
  Simulator sim;
  int v = RunSim(sim, ReturnAfter(Microseconds(10), 42));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(sim.now(), Microseconds(10));
}

Task<void> Noop() { co_return; }

TEST(TaskTest, VoidTaskCompletes) {
  Simulator sim;
  RunSim(sim, Noop());
  EXPECT_EQ(sim.now(), 0u);
}

Task<int> Outer() {
  int a = co_await ReturnAfter(Microseconds(5), 10);
  int b = co_await ReturnAfter(Microseconds(7), 32);
  co_return a + b;
}

TEST(TaskTest, NestedAwaitSumsDelays) {
  Simulator sim;
  EXPECT_EQ(RunSim(sim, Outer()), 42);
  EXPECT_EQ(sim.now(), Microseconds(12));
}

Task<std::string> DeepChain(int depth) {
  if (depth == 0) {
    co_await Delay(1);
    co_return std::string("leaf");
  }
  std::string inner = co_await DeepChain(depth - 1);
  co_return inner + "+";
}

TEST(TaskTest, DeepRecursiveAwaitChain) {
  Simulator sim;
  std::string s = RunSim(sim, DeepChain(200));
  EXPECT_EQ(s.size(), 4u + 200u);
  EXPECT_EQ(sim.now(), 1u);
}

Task<void> Appender(std::vector<int>* out, int id, Nanos delay) {
  co_await Delay(delay);
  out->push_back(id);
}

TEST(TaskTest, SpawnedTasksInterleaveByTime) {
  Simulator sim;
  std::vector<int> order;
  Spawn(sim, Appender(&order, 2, Microseconds(20)));
  Spawn(sim, Appender(&order, 1, Microseconds(10)));
  Spawn(sim, Appender(&order, 3, Microseconds(30)));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<uint64_t> ObserveTime() {
  Simulator* sim = co_await CurrentSimulator();
  co_await Delay(Microseconds(3));
  co_return sim->now();
}

TEST(TaskTest, CurrentSimulatorAccessor) {
  Simulator sim;
  EXPECT_EQ(RunSim(sim, ObserveTime()), Microseconds(3));
}

Task<int> MoveOnlyResult() {
  auto p = std::make_unique<int>(99);
  co_await Delay(1);
  co_return *p;
}

TEST(TaskTest, FrameLocalsSurviveSuspension) {
  Simulator sim;
  EXPECT_EQ(RunSim(sim, MoveOnlyResult()), 99);
}

TEST(TaskTest, UnawaitedTaskIsDestroyedWithoutRunning) {
  Simulator sim;
  bool ran = false;
  {
    auto task = [](bool* flag) -> Task<void> {
      *flag = true;
      co_return;
    }(&ran);
    // Dropped without being awaited or spawned.
  }
  sim.RunUntilIdle();
  EXPECT_FALSE(ran);
}

Task<void> Bump(int* counter) {
  co_await Delay(1);
  ++*counter;
}

Task<void> Fanout(int* counter) {
  Simulator* sim = co_await CurrentSimulator();
  for (int i = 0; i < 5; ++i) {
    Spawn(*sim, Bump(counter));
  }
}

TEST(TaskTest, TasksCanSpawnTasks) {
  Simulator sim;
  int counter = 0;
  RunSim(sim, Fanout(&counter));
  sim.RunUntilIdle();
  EXPECT_EQ(counter, 5);
}

TEST(FramePoolTest, FreedBlockServesOnlyItsOwnSizeClass) {
  sim_internal::FramePool& pool = sim_internal::frame_pool;
  void* block = pool.Allocate(100);  // the 65..128-byte class
  pool.Free(block, 100);
  void* same = pool.Allocate(70);
  EXPECT_EQ(same, block);
  pool.Free(same, 70);
  void* smaller = pool.Allocate(64);
  void* larger = pool.Allocate(129);
  EXPECT_NE(smaller, block);
  EXPECT_NE(larger, block);
  void* again = pool.Allocate(128);
  EXPECT_EQ(again, block);
  pool.Free(again, 128);
  pool.Free(larger, 129);
  pool.Free(smaller, 64);
}

Task<int> PaddedFrame() {
  int pad[160] = {};  // lives across the suspension, so it is in the frame
  co_await Delay(1);
  co_return pad[0];
}

TEST(FramePoolTest, TaskFramesRecycleWithinTheirClass) {
  auto first = Noop().Release();
  void* small_block = first.address();
  first.destroy();
  auto padded = PaddedFrame().Release();
  EXPECT_NE(padded.address(), small_block);
  auto second = Noop().Release();
  EXPECT_EQ(second.address(), small_block);
  second.destroy();
  padded.destroy();
}

}  // namespace
}  // namespace solros
