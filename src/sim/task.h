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
//  * Frames come from a thread-local pool (sim_internal::FramePool), not
//    straight from malloc.
#ifndef SOLROS_SRC_SIM_TASK_H_
#define SOLROS_SRC_SIM_TASK_H_

#include <sanitizer/asan_interface.h>

#include <coroutine>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/simulator.h"

namespace solros {

namespace sim_internal {

// Free lists of coroutine frame blocks, one per 64-byte size class, owned by
// one thread. A simulated operation creates and destroys a few dozen Task
// frames of a handful of sizes; recycling their blocks keeps malloc off the
// event loop. Frames above kClasses * kClassBytes bytes go straight to
// ::operator new. A cached block is poisoned under ASan (the macros are
// no-ops otherwise), so touching a destroyed frame is still reported. The
// lists are freed when their thread exits.
class FramePool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kClasses = 32;

  void* Allocate(size_t bytes) {
    const size_t cls = (bytes - 1) / kClassBytes;
    if (cls >= kClasses) {
      return ::operator new(bytes);
    }
    FreeBlock* block = free_[cls];
    if (block == nullptr) {
      return ::operator new((cls + 1) * kClassBytes);
    }
    ASAN_UNPOISON_MEMORY_REGION(block, (cls + 1) * kClassBytes);
    free_[cls] = block->next;
    return block;
  }

  void Free(void* frame, size_t bytes) noexcept {
    const size_t cls = (bytes - 1) / kClassBytes;
    if (cls >= kClasses || released_) {
      ::operator delete(frame);
      return;
    }
    if (!reaper_armed_) {
      ArmReaper();
    }
    free_[cls] = new (frame) FreeBlock{free_[cls]};
    ASAN_POISON_MEMORY_REGION(frame, (cls + 1) * kClassBytes);
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  // Registers Release() to run when this thread exits.
  void ArmReaper() noexcept;

  // Returns every cached block to ::operator delete; blocks freed later
  // (by thread_local or static destructors that run after) bypass the pool.
  void Release() noexcept {
    for (FreeBlock*& head : free_) {
      while (head != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(head, sizeof(FreeBlock));
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
    released_ = true;
  }

  FreeBlock* free_[kClasses] = {};
  bool reaper_armed_ = false;
  bool released_ = false;
};

// Trivially destructible and constant-initialized, so an access is a plain
// TLS load with no init guard.
inline thread_local constinit FramePool frame_pool;

inline void FramePool::ArmReaper() noexcept {
  struct Reaper {
    ~Reaper() { frame_pool.Release(); }
  };
  static thread_local Reaper reaper;
  (void)reaper;
  reaper_armed_ = true;
}

}  // namespace sim_internal

class TaskPromiseBase {
 public:
  // Coroutine frames of every Task come from the calling thread's pool.
  static void* operator new(std::size_t bytes) {
    return sim_internal::frame_pool.Allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    sim_internal::frame_pool.Free(frame, bytes);
  }

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

// Suspends the current task until absolute time `when` (clamped to now).
// `WakeAt::Ready()` does not suspend and posts no event: a leaf that
// reserves its time synchronously returns it when it has no work.
//   co_await WakeAt{end};
struct WakeAt {
  SimTime when = 0;
  bool ready = false;

  static WakeAt Ready() { return WakeAt{0, true}; }

  bool await_ready() const noexcept { return ready; }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> handle) {
    Simulator* sim = handle.promise().sim();
    DCHECK(sim != nullptr);
    sim->ResumeAt(when, handle);
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
