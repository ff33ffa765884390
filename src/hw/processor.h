// Processor model: a pool of hardware threads with a speed factor.
//
// The paper's central asymmetry (§3, §4): host cores are fast but few;
// Xeon Phi cores are slow (lean, in-order) but massively parallel. A task
// charges CPU work in *reference nanoseconds* (time on a host core); the
// processor scales it by its speed factor and queues it on one of its
// hardware threads, so oversubscription shows up as queueing delay.
#ifndef SOLROS_SRC_HW_PROCESSOR_H_
#define SOLROS_SRC_HW_PROCESSOR_H_

#include <string>

#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"

namespace solros {

class Processor {
 public:
  // `telemetry_series` overrides the USE series this processor's busy time
  // is recorded into (default "cpu.<name>"). A sharded service passes its
  // own component label (e.g. "fs.proxy[2]") so the core's utilization and
  // the service's queue depth land in one series and the bottleneck
  // analyzer names the shard directly.
  Processor(Simulator* sim, DeviceId device, int hw_threads, double speed,
            std::string name, std::string telemetry_series = "")
      : device_(device),
        speed_(speed),
        threads_(sim, static_cast<size_t>(hw_threads)) {
    CHECK_GT(speed, 0.0);
    CHECK_GT(hw_threads, 0);
    if (sim->telemetry() != nullptr) {
      threads_.set_use_series(sim->telemetry()->GetSeries(
          telemetry_series.empty() ? "cpu." + name : telemetry_series,
          static_cast<uint32_t>(hw_threads)));
    }
  }

  // Runs `reference_ns` of host-speed CPU work on this processor.
  //   co_await cpu->Compute(ns);
  MultiServerResource::UseAwaiter Compute(Nanos reference_ns) {
    return threads_.Use(ScaledTime(reference_ns));
  }

  // The wall time `reference_ns` of work takes on one of these cores.
  Nanos ScaledTime(Nanos reference_ns) const {
    return static_cast<Nanos>(static_cast<double>(reference_ns) / speed_);
  }

  DeviceId device() const { return device_; }
  double speed() const { return speed_; }
  int hw_threads() const { return static_cast<int>(threads_.server_count()); }
  Nanos total_busy_time() const { return threads_.total_busy_time(); }

 private:
  DeviceId device_;
  double speed_;
  MultiServerResource threads_;
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_PROCESSOR_H_
