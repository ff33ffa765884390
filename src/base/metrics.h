// Process-wide metrics registry.
//
// Components obtain named handles once and update them on hot paths:
//
//   static Counter* reqs =
//       MetricRegistry::Default().GetCounter("fs.proxy.requests");
//   reqs->Increment();
//
// Three metric kinds cover everything the benches and traces need:
//   Counter          -- monotonically increasing event count (atomic).
//   Gauge            -- instantaneous signed level (queue depth, bytes held).
//   LatencyHistogram -- log-bucketed nanosecond distribution with
//                       percentile queries (wraps base/histogram.h).
//
// Handles are never invalidated: GetX() returns the same pointer for the
// same name for the life of the process, so call sites may cache them in
// function-local statics. All operations are thread-safe (the ring buffer
// updates counters from real threads in the Fig. 8 harness); everything is
// deterministic under the single-threaded simulator.
//
// Snapshot() materializes a name-sorted view; DumpText prints it for the
// benches' --metrics flag.
#ifndef SOLROS_SRC_BASE_METRICS_H_
#define SOLROS_SRC_BASE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/units.h"

namespace solros {

class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // High watermark: the peak value observed since construction or the last
  // Reset(). Queue-depth spikes between samples stay visible here.
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMax(int64_t v) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

class LatencyHistogram {
 public:
  void Record(uint64_t nanos);
  void RecordN(uint64_t nanos, uint64_t count);

  uint64_t count() const;
  double Mean() const;
  uint64_t ValueAtQuantile(double q) const;
  uint64_t max() const;
  void Reset();

  // Copies the underlying histogram (for offline analysis).
  Histogram Snapshot() const;

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
};

// One materialized registry view, name-sorted for deterministic output.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value;
  };
  struct GaugeValue {
    std::string name;
    int64_t value;
    int64_t max_value;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count;
    double mean;
    uint64_t p50;
    uint64_t p99;
    uint64_t max;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide instance every instrumentation site uses.
  static MetricRegistry& Default();

  // Returns the handle registered under `name`, creating it on first use.
  // The returned pointer is stable for the registry's lifetime. Registering
  // the same name as two different kinds is a programming error (CHECK).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Aligned `name  value` table (benches' --metrics output).
  void DumpText(std::ostream& os) const;

  // Zeroes every metric; handles stay valid. (Benches isolate phases.)
  void ResetAll();

  // Zeroes only the histograms, leaving counters/gauges accumulating.
  // Benches call this between a warmup and the measured window (and between
  // repeated iterations) so percentile queries reflect exactly one window
  // instead of smearing every sample ever recorded.
  void ResetHistograms();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& GetEntry(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => deterministic dumps
};

// ---------------------------------------------------------------------------
// USE-method telemetry: time-windowed Utilization/Saturation/Errors series.
//
// A TelemetryHub owns one UseSeries per active component (ring, proxy event
// loop, NVMe queue, DMA channel set, fabric link, iosched class, ...). Each
// series keeps a ring of fixed simulated-time windows; per window it
// accumulates
//   busy_ns    server busy time             (interval-recorded components)
//   depth_ns   integral of queue depth dt   (depth-tracked components)
//   active_ns  time with depth > 0
//   wait_ns    summed queueing delay of completed items
//   ops        completions
//   errors     component errors
//   peak_depth high-watermark of the queue depth inside the window
// Utilization is busy/(width*capacity) for interval series and active/width
// for depth series; depth_ns/ops is a Little's-law queueing-delay estimate.
//
// The hub only exists when a Machine is configured with a telemetry window;
// instrumentation sites hold a nullable UseSeries* and skip all bookkeeping
// when it is null, so the off state does zero extra work. Recording never
// advances simulated time, so runs are timing-identical either way, and all
// window math is integer arithmetic on simulated nanoseconds — two identical
// runs produce identical snapshots.

// Raw per-window accumulators, also the (integer-only) dump/interchange
// format shared with tools/solros_top.
struct UseWindowData {
  uint64_t index = 0;  // window start = index * window_ns
  uint64_t busy_ns = 0;
  uint64_t depth_ns = 0;
  uint64_t active_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  int64_t peak_depth = 0;

  bool operator==(const UseWindowData&) const = default;
};

struct UseSeriesData {
  std::string name;
  uint32_t capacity = 1;
  std::vector<UseWindowData> windows;  // ascending by index

  bool operator==(const UseSeriesData&) const = default;
};

struct TelemetrySnapshot {
  uint64_t window_ns = 0;
  uint64_t end_ns = 0;
  std::vector<UseSeriesData> series;  // name-sorted
  // Component graph: parent -> child request-path edges, used by the
  // bottleneck analyzer to compute exclusive queue depths.
  std::vector<std::pair<std::string, std::string>> edges;  // sorted

  // One-line-per-series JSON with integer fields only (byte-deterministic).
  void WriteJson(std::ostream& os) const;

  bool operator==(const TelemetrySnapshot&) const = default;
};

class TelemetryHub;

class UseSeries {
 public:
  // Interval mode: one server-busy interval [start, end) whose request
  // arrived at `arrive` (wait = start - arrive). `end` may lie in the
  // future (resource reservations); busy time is split across the windows
  // the interval overlaps. The op and its wait are attributed to the
  // window containing `start`.
  void RecordUse(Nanos arrive, Nanos start, Nanos end);

  // Depth mode: the component's queue depth changes by `delta` at `now`.
  // Maintains the depth-time integral, the active (depth > 0) time, and
  // the per-window peak.
  void QueueDelta(Nanos now, int64_t delta);

  // One completion whose queueing delay was `wait` (depth mode; pass 0
  // when the delay is unknown and let depth_ns/ops estimate it).
  void CompleteOp(Nanos now, Nanos wait = 0);

  void AddError(Nanos now);

  const std::string& name() const { return name_; }
  uint32_t capacity() const { return capacity_; }
  int64_t depth() const { return depth_; }

 private:
  friend class TelemetryHub;

  UseSeries(std::string name, Nanos window_ns, size_t ring_windows,
            uint32_t capacity);

  struct Slot {
    bool used = false;
    UseWindowData data;
  };

  // Window slot covering time `t`; recycles the ring slot when `t` has
  // moved past its previous occupant. Returns null for writes that land
  // behind the ring (older than what the ring still holds).
  UseWindowData* WindowAt(Nanos t);
  // Integrates the current depth from last_update_ up to `now`.
  void AdvanceDepth(Nanos now);
  void ResetWindows();

  std::string name_;
  Nanos window_ns_;
  uint32_t capacity_;
  std::vector<Slot> ring_;
  int64_t depth_ = 0;
  Nanos last_update_ = 0;
  uint64_t dropped_ = 0;  // writes behind the ring
};

class TelemetryHub {
 public:
  // `window_ns` is the fixed window width in simulated nanoseconds;
  // `ring_windows` bounds how much history each series retains.
  explicit TelemetryHub(Nanos window_ns, size_t ring_windows = 256);

  // Returns the series registered under `name`, creating it on first use.
  // The pointer is stable for the hub's lifetime. `capacity` is the number
  // of parallel servers behind the series (utilization denominator); it is
  // fixed on first registration.
  UseSeries* GetSeries(const std::string& name, uint32_t capacity = 1);

  // Declares a request-path edge parent -> child for exclusive-depth
  // computation in the bottleneck analyzer. Unknown names are fine (the
  // edge simply contributes nothing until the series appears).
  void DeclareEdge(const std::string& parent, const std::string& child);

  // Flushes depth integrals up to `end` and materializes every retained
  // window, name-sorted. Non-const because the flush advances series state.
  TelemetrySnapshot Snapshot(Nanos end);

  // Clears all windows and integrals (current depths persist: they are
  // live component state, not history). Counters/gauges in MetricRegistry
  // are untouched, and vice versa.
  void Reset();

  Nanos window_ns() const { return window_ns_; }

 private:
  Nanos window_ns_;
  size_t ring_windows_;
  std::map<std::string, std::unique_ptr<UseSeries>> series_;  // name-sorted
  std::vector<std::pair<std::string, std::string>> edges_;
};

}  // namespace solros

#endif  // SOLROS_SRC_BASE_METRICS_H_
