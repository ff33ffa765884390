// Shared helpers for the benchmark binaries.
//
// Every bench prints paper-style tables via solros::TablePrinter and labels
// rows exactly as the corresponding figure does, so EXPERIMENTS.md can
// paste outputs directly. Simulated-time benches compute rates from
// Simulator::now() deltas; the only wall-clock bench is Fig. 8 (real
// threads).
//
// Common flags (parse with InitBench(argc, argv)):
//   --csv                 tables additionally printed as CSV rows
//   --metrics             dump the process-wide metric registry at exit
//   --trace-out=FILE      write a Chrome trace (open in ui.perfetto.dev);
//                         only benches that bind a Tracer honor this
//   --flight-recorder=N   keep a bounded ring of the last N trace events
//                         and dump it on any fault-point fire (benches that
//                         bind a Tracer attach it via ArmFlightRecorder)
//   --telemetry-out=FILE  enable USE telemetry (benches that call
//                         MaybeEnableTelemetry) and write the collected
//                         per-run snapshots as JSON; each labeled run also
//                         prints a "bottleneck[label] = component" line
//   --slo-ns=N            per-request total-latency SLO for benches that
//                         arm an SloWatchdog; its summary prints at exit
//   --trace-sample=N      tail-based trace sampling: keep only traces that
//                         violated an SLO budget, hit a fault/error, or
//                         match a deterministic 1-in-N hash of the trace
//                         id (benches that call MaybeEnableTraceSampling);
//                         SOLROS_TRACE_SAMPLE=N is the env equivalent
#ifndef SOLROS_BENCH_BENCH_UTIL_H_
#define SOLROS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/stats.h"
#include "src/base/units.h"
#include "src/sim/bottleneck.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/slo_watchdog.h"
#include "src/sim/trace.h"

namespace solros {

struct BenchFlags {
  bool csv = false;
  bool metrics = false;
  std::string trace_out;        // empty => no trace export
  uint64_t flight_recorder = 0;  // entries to keep; 0 => no recorder
  std::string telemetry_out;     // empty => telemetry off
  uint64_t slo_ns = 0;           // 0 => no SLO watchdog
  uint64_t trace_sample = 0;     // keep 1-in-N by hash; 0 => full capture
};

inline BenchFlags& GetBenchFlags() {
  static BenchFlags flags;
  return flags;
}

// Parses the common flags; unknown arguments are left for the bench.
// Returns false (after printing usage) on a malformed common flag.
inline bool InitBench(int argc, char** argv) {
  BenchFlags& flags = GetBenchFlags();
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--csv") {
      flags.csv = true;
    } else if (arg == "--metrics") {
      flags.metrics = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      flags.trace_out = std::string(arg.substr(strlen("--trace-out=")));
      if (flags.trace_out.empty()) {
        std::cerr << "--trace-out= requires a file name\n";
        return false;
      }
    } else if (arg.rfind("--flight-recorder=", 0) == 0) {
      flags.flight_recorder = static_cast<uint64_t>(
          std::strtoull(argv[i] + strlen("--flight-recorder="), nullptr, 10));
      if (flags.flight_recorder == 0) {
        std::cerr << "--flight-recorder= requires a positive entry count\n";
        return false;
      }
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      flags.telemetry_out =
          std::string(arg.substr(strlen("--telemetry-out=")));
      if (flags.telemetry_out.empty()) {
        std::cerr << "--telemetry-out= requires a file name\n";
        return false;
      }
    } else if (arg.rfind("--slo-ns=", 0) == 0) {
      flags.slo_ns = static_cast<uint64_t>(
          std::strtoull(argv[i] + strlen("--slo-ns="), nullptr, 10));
      if (flags.slo_ns == 0) {
        std::cerr << "--slo-ns= requires a positive nanosecond budget\n";
        return false;
      }
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      flags.trace_sample = static_cast<uint64_t>(
          std::strtoull(argv[i] + strlen("--trace-sample="), nullptr, 10));
      if (flags.trace_sample == 0) {
        std::cerr << "--trace-sample= requires a positive keep-1-in-N\n";
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cerr << "common flags: --csv --metrics --trace-out=FILE "
                   "--flight-recorder=N --telemetry-out=FILE --slo-ns=N "
                   "--trace-sample=N\n";
      return false;
    }
  }
  return true;
}

// Environment knobs (read by the bench configs, set by tools/ scripts):
//   SOLROS_BENCH_QUICK=1   shrink the measurement matrix (CI smoke runs)
//   SOLROS_JOURNAL=metadata|data  format the bench FS with a write-ahead
//                          journal in that mode (and the volatile-write-
//                          cache durability model); unset/off = no journal,
//                          byte-identical to the committed baselines
inline bool BenchEnvSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

inline bool BenchQuickMode() { return BenchEnvSet("SOLROS_BENCH_QUICK"); }

// "metadata", "data", or "" (no journal).
inline std::string BenchJournalMode() {
  const char* value = std::getenv("SOLROS_JOURNAL");
  if (value == nullptr || value[0] == '\0' ||
      std::string(value) == "off" || std::string(value) == "0") {
    return "";
  }
  return value;
}

// The process-wide flight recorder created by --flight-recorder=N (null
// without the flag). Lives until exit so FinishBench can print its dumps.
inline FlightRecorder*& BenchFlightRecorder() {
  static FlightRecorder* recorder = nullptr;
  return recorder;
}

// Under --flight-recorder=N, attaches a bounded recorder of N entries to
// `tracer` and arms the fault-fire trigger. Call after binding the tracer
// in benches that want crash-forensics output; no-op without the flag.
inline void ArmFlightRecorder(Tracer& tracer) {
  if (GetBenchFlags().flight_recorder == 0) {
    return;
  }
  if (BenchFlightRecorder() == nullptr) {
    BenchFlightRecorder() =
        new FlightRecorder(GetBenchFlags().flight_recorder);
    BenchFlightRecorder()->ArmFaultTrigger();
    // Echo at dump time: a fault may abort the bench (CHECK_OK on an
    // exhausted retry) before FinishBench prints retained dumps.
    BenchFlightRecorder()->set_echo_to_stderr(true);
  }
  tracer.set_flight_recorder(BenchFlightRecorder());
}

// Arms an SloWatchdog on `tracer` when SOLROS_SLO_STAGES or --slo-ns (the
// total budget) sets any budget; null otherwise. A malformed
// SOLROS_SLO_STAGES ends the bench with exit status 2, naming the bad item.
inline std::unique_ptr<SloWatchdog> MaybeArmSloWatchdog(Simulator* sim,
                                                        Tracer* tracer) {
  Result<SloBudgets> budgets = SloBudgetsFromEnv();
  if (!budgets.ok()) {
    std::cerr << budgets.status().ToString() << "\n";
    std::exit(2);
  }
  if (GetBenchFlags().slo_ns != 0) {
    (*budgets)[Stage::kTotal] = GetBenchFlags().slo_ns;
  }
  if (!budgets->any()) {
    return nullptr;
  }
  auto watchdog = std::make_unique<SloWatchdog>(sim, *budgets);
  watchdog->Bind(tracer);
  return watchdog;
}

// Tail-sampling rate: the --trace-sample flag, falling back to the
// SOLROS_TRACE_SAMPLE environment knob. 0 = full capture.
inline uint64_t TraceSampleN() {
  if (GetBenchFlags().trace_sample != 0) {
    return GetBenchFlags().trace_sample;
  }
  const char* value = std::getenv("SOLROS_TRACE_SAMPLE");
  if (value == nullptr || value[0] == '\0') {
    return 0;
  }
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

// Switches `tracer` to tail-based retention under --trace-sample=N /
// SOLROS_TRACE_SAMPLE=N. Must run before the tracer records any span.
inline void MaybeEnableTraceSampling(Tracer& tracer) {
  if (uint64_t n = TraceSampleN(); n != 0) {
    tracer.EnableSampling(n);
  }
}

// One line of retention accounting, printed by benches that sample.
inline void PrintSamplerSummary(const Tracer& tracer) {
  if (!tracer.sampling()) {
    return;
  }
  const SamplerStats& s = tracer.sampler_stats();
  std::cout << "trace sampler: kept=" << s.traces_kept
            << " (slo=" << s.kept_slo << " error=" << s.kept_error
            << " hash=" << s.kept_hash << ") dropped=" << s.traces_dropped
            << " spans_kept=" << s.spans_kept
            << " spans_dropped=" << s.spans_dropped
            << " truncated=" << s.spans_truncated
            << " late=" << s.late_spans
            << " untraced_dropped=" << s.untraced_dropped
            << " pending=" << tracer.pending_traces() << "\n";
}

// Under --telemetry-out, switches a machine config's telemetry on with a
// 1 ms window (templated so this header stays independent of machine.h).
// Telemetry recording never advances simulated time, so measured numbers
// are byte-identical with or without the flag.
template <typename Config>
inline void MaybeEnableTelemetry(Config& config) {
  if (GetBenchFlags().telemetry_out.empty()) {
    return;
  }
  config.telemetry_window = Milliseconds(1);
}

// Call at the warmup/measured-window boundary (after setup I/O like
// workload-file prep): clears accumulated telemetry history so the report
// covers exactly the measured section. No-op when telemetry is off.
template <typename MachineT>
inline void ResetTelemetry(MachineT& machine) {
  if (machine.telemetry() != nullptr) {
    machine.telemetry()->Reset();
  }
}

struct TelemetryReportEntry {
  std::string label;
  std::string json;
  std::string conntrack;  // top-K connection table JSON ("" = no net plane)
};

// Snapshots accumulated by AppendTelemetryReport, written by FinishBench.
inline std::vector<TelemetryReportEntry>& TelemetryReports() {
  static std::vector<TelemetryReportEntry> reports;
  return reports;
}

// Call after a measured run: snapshots the machine's telemetry, prints the
// analyzer's overall verdict as "bottleneck[label] = component", and queues
// the snapshot for the --telemetry-out file. No-op when telemetry is off.
template <typename MachineT>
inline void AppendTelemetryReport(const std::string& label,
                                  MachineT& machine) {
  if (GetBenchFlags().telemetry_out.empty() ||
      machine.telemetry() == nullptr) {
    return;
  }
  TelemetrySnapshot snapshot =
      machine.telemetry()->Snapshot(machine.sim().now());
  std::ostringstream json;
  snapshot.WriteJson(json);
  // Machines with a network plane contribute their top-8 connection table
  // (conntrack); rigs without one report "".
  std::string conntrack;
  if constexpr (requires { machine.ConntrackJson(size_t{8}); }) {
    conntrack = machine.ConntrackJson(8);
  }
  TelemetryReports().push_back({label, json.str(), std::move(conntrack)});
  BottleneckReport report = AnalyzeBottlenecks(snapshot);
  std::cout << "bottleneck[" << label << "] = "
            << (report.overall.empty() ? "none" : report.overall) << "\n";
}

// Prints `table` aligned, plus CSV when --csv was given.
inline void EmitTable(const TablePrinter& table) {
  table.Print(std::cout);
  if (GetBenchFlags().csv) {
    std::cout << "csv:\n";
    table.PrintCsv(std::cout);
  }
}

// Call at the end of main: dumps the metric registry under --metrics and
// any retained flight-recorder dumps under --flight-recorder.
inline void FinishBench() {
  if (GetBenchFlags().metrics) {
    std::cout << "\n--- metrics (--metrics) ---\n";
    MetricRegistry::Default().DumpText(std::cout);
  }
  if (!GetBenchFlags().telemetry_out.empty() &&
      !TelemetryReports().empty()) {
    std::ofstream out(GetBenchFlags().telemetry_out);
    if (!out) {
      std::cerr << "cannot open " << GetBenchFlags().telemetry_out << "\n";
    } else {
      out << "{\"reports\":[";
      bool first = true;
      for (const TelemetryReportEntry& entry : TelemetryReports()) {
        std::string json = entry.json;
        while (!json.empty() && json.back() == '\n') {
          json.pop_back();
        }
        out << (first ? "" : ",") << "\n{\"label\":\"" << entry.label
            << "\",\"telemetry\":" << json;
        if (!entry.conntrack.empty()) {
          out << ",\"conntrack\":" << entry.conntrack;
        }
        out << "}";
        first = false;
      }
      out << "\n]}\n";
    }
  }
  FlightRecorder* recorder = BenchFlightRecorder();
  if (recorder != nullptr && recorder->total_dumps() > 0) {
    std::cout << "\n--- flight recorder (--flight-recorder) ---\n";
    recorder->WriteText(std::cout);
  }
}

inline std::string HumanSize(uint64_t bytes) {
  if (bytes >= MiB(1) && bytes % MiB(1) == 0) {
    return std::to_string(bytes / MiB(1)) + "MB";
  }
  if (bytes >= KiB(1) && bytes % KiB(1) == 0) {
    return std::to_string(bytes / KiB(1)) + "KB";
  }
  return std::to_string(bytes) + "B";
}

inline std::string GBps3(double bytes_per_sec) {
  return TablePrinter::Num(bytes_per_sec / 1e9, 3);
}

inline std::string Usec1(Nanos t) {
  return TablePrinter::Num(ToMicros(t), 1);
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "paper reference: " << paper << "\n\n";
}

}  // namespace solros

#endif  // SOLROS_BENCH_BENCH_UTIL_H_
