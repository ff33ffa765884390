// Discrete-event simulator core.
//
// The simulator is a single-threaded event loop over (time, sequence)-ordered
// coroutine resumptions. All device and OS-service models in this repository
// run as C++20 coroutines (src/sim/task.h); an event is one suspended
// coroutine and the time to resume it. Simulated time only advances between
// events, so every run is deterministic.
//
// Events at equal timestamps execute in FIFO scheduling order. A resumption
// posted for the current time skips the heap: it goes to a FIFO ready lane
// that runs after the heap events already due at now. Those were scheduled
// before the clock reached now, so their sequence numbers are lower than any
// lane post's, and the lane preserves the (time, seq) order exactly.
#ifndef SOLROS_SRC_SIM_SIMULATOR_H_
#define SOLROS_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/base/units.h"

namespace solros {

// Absolute simulated time in nanoseconds since simulation start.
using SimTime = Nanos;

class Tracer;
class TelemetryHub;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Optional span/event recorder (src/sim/trace.h). Instrumentation sites
  // are no-ops while unset; the tracer must outlive everything that may
  // still close a span against it (bind it before the components under
  // test, or keep it alive past the Simulator's owner).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Optional USE-telemetry hub (src/base/metrics.h). Same contract as the
  // tracer: instrumentation sites skip all bookkeeping while unset, and the
  // hub must outlive the components recording into it (the Machine owns it
  // and binds it before constructing any component).
  void set_telemetry(TelemetryHub* hub) { telemetry_ = hub; }
  TelemetryHub* telemetry() const { return telemetry_; }

  // Schedules resumption of a suspended coroutine at absolute time `when`
  // (clamped to now; at now it runs after the current event and every event
  // already due, from the ready lane). The only way to schedule an event.
  void ResumeAt(SimTime when, std::coroutine_handle<> handle) {
    if (when <= now_) {
      ready_.push_back(handle);
    } else {
      queue_.push(Event{when, seq_++, handle});
    }
  }

  // Runs until the event queue drains or `max_events` have been processed.
  // Returns the number of events processed.
  uint64_t RunUntilIdle(uint64_t max_events = ~0ull) {
    uint64_t processed = 0;
    while (!idle() && processed < max_events) {
      StepOne();
      ++processed;
    }
    return processed;
  }

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (even if idle). Returns the number of events processed.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t processed = 0;
    while (!idle() && NextEventTime() <= deadline) {
      StepOne();
      ++processed;
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return processed;
  }

  size_t pending_events() const {
    return queue_.size() + (ready_.size() - ready_head_);
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::coroutine_handle<> handle;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  bool idle() const { return queue_.empty() && ready_head_ == ready_.size(); }

  // Time of the next event; the simulator must not be idle.
  SimTime NextEventTime() const {
    return ready_head_ < ready_.size() ? now_ : queue_.top().when;
  }

  // Runs the next event: a heap event due now, else the lane's head, else
  // the earliest heap event (advancing the clock to it).
  void StepOne() {
    std::coroutine_handle<> handle;
    if (ready_head_ < ready_.size() &&
        (queue_.empty() || queue_.top().when != now_)) {
      handle = ready_[ready_head_++];
      if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
    } else {
      // Copy the event out before resuming: the coroutine may push new
      // events and invalidate the queue top.
      const Event event = queue_.top();
      queue_.pop();
      now_ = event.when;
      handle = event.handle;
    }
    handle.resume();
  }

  SimTime now_ = 0;
  Tracer* tracer_ = nullptr;
  TelemetryHub* telemetry_ = nullptr;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  // Zero-delay resumptions posted at now, in FIFO order from ready_head_.
  // The lane drains before the clock advances, so every entry is due now.
  std::vector<std::coroutine_handle<>> ready_;
  size_t ready_head_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SIMULATOR_H_
