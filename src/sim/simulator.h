// Discrete-event simulator core.
//
// The simulator is a single-threaded event loop over (time, sequence)-ordered
// coroutine resumptions. All device and OS-service models in this repository
// run as C++20 coroutines (src/sim/task.h); an event is one suspended
// coroutine and the time to resume it. Simulated time only advances between
// events, so every run is deterministic.
//
// Events at equal timestamps execute in FIFO scheduling order.
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
  // already due). The only way to schedule an event.
  void ResumeAt(SimTime when, std::coroutine_handle<> handle) {
    queue_.push(Event{std::max(when, now_), seq_++, handle});
  }

  // Runs until the event queue drains or `max_events` have been processed.
  // Returns the number of events processed.
  uint64_t RunUntilIdle(uint64_t max_events = ~0ull) {
    uint64_t processed = 0;
    while (!queue_.empty() && processed < max_events) {
      StepOne();
      ++processed;
    }
    return processed;
  }

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (even if idle). Returns the number of events processed.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t processed = 0;
    while (!queue_.empty() && queue_.top().when <= deadline) {
      StepOne();
      ++processed;
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return processed;
  }

  size_t pending_events() const { return queue_.size(); }

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

  void StepOne() {
    // Copy the event out before resuming: the coroutine may push new events
    // and invalidate the queue top.
    const Event event = queue_.top();
    queue_.pop();
    now_ = event.when;
    event.handle.resume();
  }

  SimTime now_ = 0;
  Tracer* tracer_ = nullptr;
  TelemetryHub* telemetry_ = nullptr;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SIMULATOR_H_
