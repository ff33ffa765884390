// Always-on bounded flight recorder for trace events.
//
// Production storage stacks keep a cheap in-memory ring of recent events
// (Ceph's OpTracker, kernel ftrace ring) so that when something goes wrong
// the last moments before the failure are available without paying for a
// full trace. This is the simulator's equivalent: a FlightRecorder attached
// to a Tracer (Tracer::set_flight_recorder) receives a copy of every span
// begin/end and instant event into a fixed-size ring. Three callers snapshot
// the ring into a retained dump:
//
//   * a FaultPoint fires (ArmFaultTrigger installs a FaultRegistry fire
//     listener; the dump's trigger names the point, e.g.
//     "fault: nvme.cmd.timeout");
//   * a proxy is about to return a system error to a data plane
//     (MaybeDumpFlightRecorder, trigger "fs.proxy error: kIoError" etc.);
//   * the SLO watchdog (src/sim/slo_watchdog.h) sees a sustained run of
//     over-budget requests — so a slow-but-fault-free request leaves
//     forensics too (trigger "slo watchdog: <stage> over budget ...").
//
// Dumps are bounded (the oldest is discarded past kMaxDumps) and each
// carries the triggering reason, the simulated time of the last recorded
// event, and the ring contents oldest-first. The whole mechanism rides on
// the tracer: with no tracer bound nothing reaches the recorder, so the
// zero-overhead-when-off contract of the tracing layer is preserved.
#ifndef SOLROS_SRC_SIM_FLIGHT_RECORDER_H_
#define SOLROS_SRC_SIM_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace solros {

class FlightRecorder {
 public:
  // One recorded trace event. kind: 'B' span begin, 'E' span end,
  // 'I' instant, 'R' retroactive span (recorded at its end time).
  struct Entry {
    SimTime at = 0;
    char kind = 0;
    std::string track;
    std::string name;
    uint64_t trace_id = 0;  // 0 = untraced event
  };

  struct DumpRecord {
    uint64_t seq = 0;        // 1-based dump ordinal
    std::string trigger;     // what caused the dump
    SimTime at = 0;          // time of the newest entry when dumped
    std::vector<Entry> entries;  // oldest first
  };

  // Retained dumps; older ones are discarded.
  static constexpr size_t kMaxDumps = 8;

  // Keeps the newest `capacity` (> 0) events.
  explicit FlightRecorder(size_t capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  // Appends one event to the ring (called by the Tracer).
  void Note(char kind, std::string_view track, std::string_view name,
            uint64_t trace_id, SimTime at);

  // Snapshots the ring into a retained dump annotated with `trigger`.
  void Dump(std::string_view trigger);

  // Installs a FaultRegistry fire listener that dumps on every fault fire
  // (removed in the destructor). One recorder at a time may hold it.
  void ArmFaultTrigger();

  // Also write each dump to stderr the moment it is taken — forensics
  // survive even if the process aborts before the report is printed.
  void set_echo_to_stderr(bool echo) { echo_to_stderr_ = echo; }

  size_t capacity() const { return capacity_; }
  uint64_t total_dumps() const { return total_dumps_; }
  const std::deque<DumpRecord>& dumps() const { return dumps_; }

  // Human-readable text form of one dump / of all retained dumps.
  static void WriteDump(std::ostream& os, const DumpRecord& dump);
  void WriteText(std::ostream& os) const;

 private:
  size_t capacity_;
  bool echo_to_stderr_ = false;
  bool fault_trigger_armed_ = false;
  // Ring: entries_[(head_ + i) % capacity_] for i in [0, size_).
  std::vector<Entry> entries_;
  size_t head_ = 0;
  size_t size_ = 0;
  SimTime last_at_ = 0;
  std::deque<DumpRecord> dumps_;
  uint64_t total_dumps_ = 0;
};

// Dumps the flight recorder reachable through `sim`'s tracer, if any.
// Null-safe at every hop so instrumentation sites can call unconditionally.
inline void MaybeDumpFlightRecorder(Simulator* sim, std::string_view trigger) {
  if (sim == nullptr || sim->tracer() == nullptr) {
    return;
  }
  FlightRecorder* recorder = sim->tracer()->flight_recorder();
  if (recorder != nullptr) {
    recorder->Dump(trigger);
  }
}

}  // namespace solros

#endif  // SOLROS_SRC_SIM_FLIGHT_RECORDER_H_
