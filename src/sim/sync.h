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
#include <memory>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {

// A condition without an attached predicate: tasks Wait(), other tasks
// NotifyOne()/NotifyAll(). Always re-check your predicate in a loop.
//
// Waiters queue in FIFO order through their awaiters, which live in the
// suspended tasks' frames, so waiting allocates nothing.
class Condition {
 public:
  explicit Condition(Simulator* sim) : sim_(sim) { DCHECK(sim != nullptr); }
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct WaitAwaiter {
    Condition* cond;
    std::coroutine_handle<> handle = {};
    WaitAwaiter* next = nullptr;
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> waiting) {
      handle = waiting;
      cond->Enqueue(this);
    }
    void await_resume() const noexcept {}
  };
  WaitAwaiter Wait() { return WaitAwaiter{this}; }

  void NotifyOne() {
    if (head_ == nullptr) {
      return;
    }
    WaitAwaiter* waiter = head_;
    head_ = waiter->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    --waiters_;
    sim_->ResumeAt(sim_->now(), waiter->handle);
  }

  void NotifyAll() {
    while (head_ != nullptr) {
      NotifyOne();
    }
  }

  size_t waiter_count() const { return waiters_; }
  Simulator* sim() const { return sim_; }

 private:
  void Enqueue(WaitAwaiter* waiter) {
    if (tail_ == nullptr) {
      head_ = waiter;
    } else {
      tail_->next = waiter;
    }
    tail_ = waiter;
    ++waiters_;
  }

  Simulator* sim_;
  WaitAwaiter* head_ = nullptr;
  WaitAwaiter* tail_ = nullptr;
  size_t waiters_ = 0;
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
//
// Items live in a power-of-two ring that is allocated on the first push
// and doubles when full, so an empty channel (one per connection on the
// net path, most of them idle) owns no heap memory. `T` must be default
// constructible: free ring slots hold moved-from or default values.
template <typename T>
class Channel {
 public:
  Channel(Simulator* sim, size_t capacity)
      : capacity_(capacity), readable_(sim), writable_(sim) {}

  // Suspends while the channel is full (bounded case).
  Task<void> Send(T item) {
    while (capacity_ != 0 && size_ >= capacity_ && !closed_) {
      co_await writable_.Wait();
    }
    CHECK(!closed_) << "send on closed channel";
    Push(std::move(item));
    readable_.NotifyOne();
  }

  // Non-suspending send; fails when bounded-full or closed.
  bool TrySend(T item) {
    if (closed_ || (capacity_ != 0 && size_ >= capacity_)) {
      return false;
    }
    Push(std::move(item));
    readable_.NotifyOne();
    return true;
  }

  // Suspends until an item arrives or the channel is closed+drained.
  // Returns nullopt only on closed+drained.
  Task<std::optional<T>> Receive() {
    while (size_ == 0 && !closed_) {
      co_await readable_.Wait();
    }
    if (size_ == 0) {
      co_return std::optional<T>();
    }
    T item = Pop();
    writable_.NotifyOne();
    co_return std::optional<T>(std::move(item));
  }

  std::optional<T> TryReceive() {
    if (size_ == 0) {
      return std::nullopt;
    }
    T item = Pop();
    writable_.NotifyOne();
    return item;
  }

  void Close() {
    closed_ = true;
    readable_.NotifyAll();
    writable_.NotifyAll();
  }

  bool closed() const { return closed_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr size_t kFirstRingSlots = 4;

  void Push(T item) {
    if (size_ == ring_slots_) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_slots_ - 1)] = std::move(item);
    ++size_;
  }

  T Pop() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_slots_ - 1);
    --size_;
    return item;
  }

  // Doubles the ring (or allocates the first one), unwrapping the items so
  // the oldest lands in slot 0.
  void Grow() {
    const size_t slots = ring_slots_ == 0 ? kFirstRingSlots : 2 * ring_slots_;
    auto ring = std::make_unique<T[]>(slots);
    for (size_t i = 0; i < size_; ++i) {
      ring[i] = std::move(ring_[(head_ + i) & (ring_slots_ - 1)]);
    }
    ring_ = std::move(ring);
    ring_slots_ = slots;
    head_ = 0;
  }

  size_t capacity_;
  bool closed_ = false;
  std::unique_ptr<T[]> ring_;
  size_t ring_slots_ = 0;  // zero or a power of two
  size_t head_ = 0;        // index of the oldest item
  size_t size_ = 0;
  Condition readable_;
  Condition writable_;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SYNC_H_
