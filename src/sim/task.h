// Coroutine task type for simulator processes.
//
// A `Task<T>` is a lazily-started coroutine bound to a `Simulator`:
//
//   Task<int> Child(DelayArg...) {
//     co_await Delay(Microseconds(3));   // advance simulated time
//     co_return 42;
//   }
//   Task<void> Parent() {
//     int v = co_await Child();          // runs child to completion
//   }
//   Spawn(sim, Parent());                // detach as a root process
//
// Ownership rules:
//  * An awaited Task is owned by the awaiting expression; its frame is
//    destroyed when the Task object goes out of scope (after completion).
//  * A spawned (detached) Task destroys its own frame on completion.
//  * The Simulator pointer propagates parent -> child at co_await time, so
//    only root tasks need explicit binding (done by Spawn/RunSim).
#ifndef SOLROS_SRC_SIM_TASK_H_
#define SOLROS_SRC_SIM_TASK_H_

#include <coroutine>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/simulator.h"

namespace solros {

class TaskPromiseBase {
 public:
  Simulator* sim() const { return sim_; }
  void set_sim(Simulator* sim) { sim_ = sim; }
  void set_continuation(std::coroutine_handle<> continuation) {
    continuation_ = continuation;
  }
  void set_detached() { detached_ = true; }

  std::suspend_always initial_suspend() noexcept { return {}; }

  // On completion: transfer to the awaiting parent if any; a detached task
  // has no parent and frees its own frame.
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> handle) noexcept {
      TaskPromiseBase& promise = handle.promise();
      if (promise.continuation_) {
        return promise.continuation_;
      }
      if (promise.detached_) {
        handle.destroy();
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { CHECK(false) << "exception escaped sim task"; }

 private:
  Simulator* sim_ = nullptr;
  std::coroutine_handle<> continuation_;
  bool detached_ = false;
};

template <typename T>
class TaskPromise : public TaskPromiseBase {
 public:
  void return_value(T value) { value_.emplace(std::move(value)); }
  T TakeValue() {
    DCHECK(value_.has_value());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
};

template <>
class TaskPromise<void> : public TaskPromiseBase {
 public:
  void return_void() {}
  void TakeValue() {}
};

template <typename T = void>
class [[nodiscard]] Task {
 public:
  class promise_type : public TaskPromise<T> {
   public:
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyFrame();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { DestroyFrame(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  // when the child completes, yielding the child's return value.
  struct Awaiter {
    Handle child;
    bool await_ready() const noexcept { return false; }
    template <typename ParentPromise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<ParentPromise> parent) noexcept {
      child.promise().set_sim(parent.promise().sim());
      child.promise().set_continuation(parent);
      return child;
    }
    T await_resume() { return child.promise().TakeValue(); }
  };
  Awaiter operator co_await() && { return Awaiter{handle_}; }

  // Releases ownership of the coroutine frame (used by Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

 private:
  void DestroyFrame() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

// Detaches `task` as a root simulator process; it starts at the current
// simulated time (after already-queued same-time events) and frees itself
// when it finishes.
template <typename T>
void Spawn(Simulator& sim, Task<T> task) {
  auto handle = task.Release();
  CHECK(handle) << "spawning an empty task";
  handle.promise().set_sim(&sim);
  handle.promise().set_detached();
  sim.ResumeAt(sim.now(), handle);
}

// Suspends the current task for `delay` simulated nanoseconds.
//   co_await Delay(Microseconds(5));
struct Delay {
  Nanos delay;
  explicit Delay(Nanos d) : delay(d) {}

  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> handle) {
    Simulator* sim = handle.promise().sim();
    DCHECK(sim != nullptr);
    sim->ResumeAt(sim->now() + delay, handle);
  }
  void await_resume() const noexcept {}
};

// Yields access to the owning simulator from inside a task:
//   Simulator* sim = co_await CurrentSimulator();
struct CurrentSimulator {
  Simulator* sim = nullptr;
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> handle) {
    sim = handle.promise().sim();
    return false;  // never actually suspend
  }
  Simulator* await_resume() const noexcept { return sim; }
};

namespace sim_internal {

template <typename T>
Task<void> CaptureResult(Task<T> inner, std::optional<T>* slot, bool* flag) {
  slot->emplace(co_await std::move(inner));
  *flag = true;
}

inline Task<void> CaptureDone(Task<void> inner, bool* flag) {
  co_await std::move(inner);
  *flag = true;
}

}  // namespace sim_internal

// Runs `task` to completion on `sim` and returns its result. Fails fatally
// if the simulation goes idle before the task finishes (deadlock) — this is
// the standard driver for tests and benchmarks.
template <typename T>
T RunSim(Simulator& sim, Task<T> task) {
  std::optional<T> out;
  bool done = false;
  Spawn(sim, sim_internal::CaptureResult(std::move(task), &out, &done));
  sim.RunUntilIdle();
  CHECK(done) << "simulation went idle before the root task completed";
  return std::move(*out);
}

inline void RunSim(Simulator& sim, Task<void> task) {
  bool done = false;
  Spawn(sim, sim_internal::CaptureDone(std::move(task), &done));
  sim.RunUntilIdle();
  CHECK(done) << "simulation went idle before the root task completed";
}

}  // namespace solros

#endif  // SOLROS_SRC_SIM_TASK_H_
