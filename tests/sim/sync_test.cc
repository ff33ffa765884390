#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

Task<void> WaitForFlag(Condition* cond, const bool* flag,
                       std::vector<int>* log, int id) {
  while (!*flag) {
    co_await cond->Wait();
  }
  log->push_back(id);
}

Task<void> SetFlag(Condition* cond, bool* flag, Nanos at) {
  co_await Delay(at);
  *flag = true;
  cond->NotifyAll();
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  Condition cond(&sim);
  bool flag = false;
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) {
    Spawn(sim, WaitForFlag(&cond, &flag, &log, i));
  }
  Spawn(sim, SetFlag(&cond, &flag, Microseconds(50)));
  sim.RunUntilIdle();
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(sim.now(), Microseconds(50));
}

TEST(ConditionTest, NotifyOneWakesSingleWaiter) {
  Simulator sim;
  Condition cond(&sim);
  int woke = 0;
  auto waiter = [](Condition* c, int* counter) -> Task<void> {
    co_await c->Wait();
    ++*counter;
  };
  Spawn(sim, waiter(&cond, &woke));
  Spawn(sim, waiter(&cond, &woke));
  sim.RunUntilIdle();
  EXPECT_EQ(cond.waiter_count(), 2u);
  cond.NotifyOne();
  sim.RunUntilIdle();
  EXPECT_EQ(woke, 1);
  cond.NotifyOne();
  sim.RunUntilIdle();
  EXPECT_EQ(woke, 2);
}

Task<void> AcquireThenHold(Semaphore* sem, Nanos hold, int* active,
                           int* peak) {
  co_await sem->Acquire();
  ++*active;
  if (*active > *peak) {
    *peak = *active;
  }
  co_await Delay(hold);
  --*active;
  sem->Release();
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 8; ++i) {
    Spawn(sim, AcquireThenHold(&sem, Microseconds(10), &active, &peak));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 8 holders, 2 at a time, 10us each -> 40us.
  EXPECT_EQ(sim.now(), Microseconds(40));
}

TEST(SemaphoreTest, TryAcquire) {
  Simulator sim;
  Semaphore sem(&sim, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

Task<void> SleepTask(Nanos d) { co_await Delay(d); }

TEST(WaitGroupTest, JoinsAllChildren) {
  Simulator sim;
  WaitGroup wg(&sim);
  for (int i = 1; i <= 4; ++i) {
    SpawnJoined(sim, wg, SleepTask(Microseconds(10 * i)));
  }
  bool joined = false;
  auto joiner = [](WaitGroup* group, bool* flag) -> Task<void> {
    co_await group->Wait();
    *flag = true;
  };
  Spawn(sim, joiner(&wg, &joined));
  sim.RunUntilIdle();
  EXPECT_TRUE(joined);
  EXPECT_EQ(sim.now(), Microseconds(40));
  EXPECT_EQ(wg.outstanding(), 0u);
}

TEST(WaitGroupTest, WaitOnEmptyGroupReturnsImmediately) {
  Simulator sim;
  WaitGroup wg(&sim);
  bool joined = false;
  auto joiner = [](WaitGroup* group, bool* flag) -> Task<void> {
    co_await group->Wait();
    *flag = true;
  };
  Spawn(sim, joiner(&wg, &joined));
  sim.RunUntilIdle();
  EXPECT_TRUE(joined);
}

Task<void> Producer(Channel<int>* ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch->Send(i);
    co_await Delay(Microseconds(1));
  }
  ch->Close();
}

Task<void> Consumer(Channel<int>* ch, std::vector<int>* out) {
  while (true) {
    std::optional<int> item = co_await ch->Receive();
    if (!item.has_value()) {
      break;
    }
    out->push_back(*item);
  }
}

TEST(ChannelTest, DeliversInOrderAndCloses) {
  Simulator sim;
  Channel<int> ch(&sim, 4);
  std::vector<int> got;
  Spawn(sim, Producer(&ch, 10));
  Spawn(sim, Consumer(&ch, &got));
  sim.RunUntilIdle();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(ChannelTest, BoundedChannelAppliesBackpressure) {
  Simulator sim;
  Channel<int> ch(&sim, 2);
  int sent = 0;
  auto producer = [](Channel<int>* c, int* counter) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await c->Send(i);
      ++*counter;
    }
  };
  Spawn(sim, producer(&ch, &sent));
  sim.RunUntilIdle();
  EXPECT_EQ(sent, 2);  // producer stuck after filling capacity
  EXPECT_EQ(ch.TryReceive().value(), 0);
  sim.RunUntilIdle();
  EXPECT_EQ(sent, 3);
}

TEST(ChannelTest, TrySendFailsWhenFull) {
  Simulator sim;
  Channel<int> ch(&sim, 1);
  EXPECT_TRUE(ch.TrySend(1));
  EXPECT_FALSE(ch.TrySend(2));
  EXPECT_EQ(ch.TryReceive().value(), 1);
  EXPECT_FALSE(ch.TryReceive().has_value());
}

TEST(ChannelTest, KeepsFifoOrderWhenGrowingAWrappedRing) {
  Simulator sim;
  Channel<int> ch(&sim, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ch.TrySend(i));
  }
  EXPECT_EQ(ch.TryReceive().value(), 0);
  EXPECT_EQ(ch.TryReceive().value(), 1);
  // The ring now wraps, and these pushes grow it twice.
  for (int i = 3; i < 13; ++i) {
    EXPECT_TRUE(ch.TrySend(i));
  }
  EXPECT_EQ(ch.size(), 11u);
  for (int i = 2; i < 13; ++i) {
    EXPECT_EQ(ch.TryReceive().value(), i);
  }
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelTest, ReceiveOnClosedDrainedChannelReturnsNullopt) {
  Simulator sim;
  Channel<int> ch(&sim, 0);
  ch.Close();
  std::optional<int> got = RunSim(sim, ch.Receive());
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace solros
