// Synchronization primitives for simulator tasks.
//
// All of these are single-threaded (the simulator owns all tasks); "blocking"
// means suspending the coroutine until another task calls a notify/release
// method. Resumptions are scheduled as zero-delay events so that notifiers
// never run awaiters on their own stack.
#ifndef SOLROS_SRC_SIM_SYNC_H_
#define SOLROS_SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {

// A condition without an attached predicate: tasks Wait(), other tasks
// NotifyOne()/NotifyAll(). Always re-check your predicate in a loop.
class Condition {
 public:
  explicit Condition(Simulator* sim) : sim_(sim) { DCHECK(sim != nullptr); }
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct WaitAwaiter {
    Condition* cond;
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> handle) {
      cond->waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}
  };
  WaitAwaiter Wait() { return WaitAwaiter{this}; }

  void NotifyOne() {
    if (waiters_.empty()) {
      return;
    }
    std::coroutine_handle<> handle = waiters_.front();
    waiters_.pop_front();
    sim_->ResumeAt(sim_->now(), handle);
  }

  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }

  size_t waiter_count() const { return waiters_.size(); }
  Simulator* sim() const { return sim_; }

 private:
  Simulator* sim_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator* sim, uint64_t initial)
      : count_(initial), cond_(sim) {}

  Task<void> Acquire() {
    while (count_ == 0) {
      co_await cond_.Wait();
    }
    --count_;
  }

  bool TryAcquire() {
    if (count_ == 0) {
      return false;
    }
    --count_;
    return true;
  }

  void Release(uint64_t n = 1) {
    count_ += n;
    for (uint64_t i = 0; i < n; ++i) {
      cond_.NotifyOne();
    }
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_;
  Condition cond_;
};

// Join-counter for fork/join fan-out:
//   WaitGroup wg(&sim);
//   for (...) SpawnJoined(sim, wg, Worker(...));
//   co_await wg.Wait();
class WaitGroup {
 public:
  explicit WaitGroup(Simulator* sim) : cond_(sim) {}

  void Add(uint64_t n = 1) { outstanding_ += n; }

  void Done() {
    DCHECK(outstanding_ > 0);
    if (--outstanding_ == 0) {
      cond_.NotifyAll();
    }
  }

  Task<void> Wait() {
    while (outstanding_ != 0) {
      co_await cond_.Wait();
    }
  }

  uint64_t outstanding() const { return outstanding_; }

 private:
  uint64_t outstanding_ = 0;
  Condition cond_;
};

namespace sim_internal {

template <typename T>
Task<void> RunThenDone(Task<T> task, WaitGroup* group) {
  co_await std::move(task);
  group->Done();
}

}  // namespace sim_internal

// Spawns `task` detached and registers it with `group` so the parent can
// join on all spawned children.
template <typename T>
void SpawnJoined(Simulator& sim, WaitGroup& group, Task<T> task) {
  group.Add(1);
  Spawn(sim, sim_internal::RunThenDone(std::move(task), &group));
}

// Bounded (or unbounded when capacity == 0) FIFO channel between tasks.
// Closing wakes all receivers; Receive on a closed, drained channel returns
// kWouldBlock-like failure via the bool-result protocol below.
template <typename T>
class Channel {
 public:
  Channel(Simulator* sim, size_t capacity)
      : capacity_(capacity), readable_(sim), writable_(sim) {}

  // Suspends while the channel is full (bounded case).
  Task<void> Send(T item) {
    while (capacity_ != 0 && items_.size() >= capacity_ && !closed_) {
      co_await writable_.Wait();
    }
    CHECK(!closed_) << "send on closed channel";
    items_.push_back(std::move(item));
    readable_.NotifyOne();
  }

  // Non-suspending send; fails when bounded-full or closed.
  bool TrySend(T item) {
    if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) {
      return false;
    }
    items_.push_back(std::move(item));
    readable_.NotifyOne();
    return true;
  }

  // Suspends until an item arrives or the channel is closed+drained.
  // Returns nullopt only on closed+drained.
  Task<std::optional<T>> Receive() {
    while (items_.empty() && !closed_) {
      co_await readable_.Wait();
    }
    if (items_.empty()) {
      co_return std::optional<T>();
    }
    T item = std::move(items_.front());
    items_.pop_front();
    writable_.NotifyOne();
    co_return std::optional<T>(std::move(item));
  }

  std::optional<T> TryReceive() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    writable_.NotifyOne();
    return item;
  }

  void Close() {
    closed_ = true;
    readable_.NotifyAll();
    writable_.NotifyAll();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  Condition readable_;
  Condition writable_;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SYNC_H_
