#include "src/base/metrics.h"

#include <algorithm>
#include <ostream>

#include "src/base/logging.h"
#include "src/base/stats.h"

namespace solros {

void LatencyHistogram::Record(uint64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.Record(nanos);
}

void LatencyHistogram::RecordN(uint64_t nanos, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.RecordN(nanos, count);
}

uint64_t LatencyHistogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_.count();
}

double LatencyHistogram::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_.Mean();
}

uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_.ValueAtQuantile(q);
}

uint64_t LatencyHistogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_.max();
}

void LatencyHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.Reset();
}

Histogram LatencyHistogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_;
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

MetricRegistry::Entry& MetricRegistry::GetEntry(const std::string& name,
                                                Kind kind) {
  auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<LatencyHistogram>();
        break;
    }
  }
  CHECK(entry.kind == kind) << "metric '" << name
                            << "' registered as two different kinds";
  return entry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetEntry(name, Kind::kCounter).counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetEntry(name, Kind::kGauge).gauge.get();
}

LatencyHistogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetEntry(name, Kind::kHistogram).histogram.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters.push_back({name, entry.counter->value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back(
            {name, entry.gauge->value(), entry.gauge->max_value()});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back({name, entry.histogram->count(),
                                   entry.histogram->Mean(),
                                   entry.histogram->ValueAtQuantile(0.5),
                                   entry.histogram->ValueAtQuantile(0.99),
                                   entry.histogram->max()});
        break;
    }
  }
  return snap;
}

void MetricRegistry::DumpText(std::ostream& os) const {
  MetricsSnapshot snap = Snapshot();
  TablePrinter table({"metric", "value"});
  for (const auto& c : snap.counters) {
    table.AddRow({c.name, std::to_string(c.value)});
  }
  for (const auto& g : snap.gauges) {
    table.AddRow({g.name, std::to_string(g.value)});
  }
  table.Print(os);
  if (!snap.histograms.empty()) {
    TablePrinter hist({"histogram", "count", "mean ns", "p50 ns", "p99 ns",
                       "max ns"});
    for (const auto& h : snap.histograms) {
      hist.AddRow({h.name, std::to_string(h.count),
                   TablePrinter::Num(h.mean, 0), std::to_string(h.p50),
                   std::to_string(h.p99), std::to_string(h.max)});
    }
    hist.Print(os);
  }
}

void MetricRegistry::ResetHistograms() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (entry.kind == Kind::kHistogram) {
      entry.histogram->Reset();
    }
  }
}

// --------------------------------------------------------------------------
// USE telemetry

UseSeries::UseSeries(std::string name, Nanos window_ns, size_t ring_windows,
                     uint32_t capacity)
    : name_(std::move(name)),
      window_ns_(window_ns),
      capacity_(capacity == 0 ? 1 : capacity),
      ring_(ring_windows == 0 ? 1 : ring_windows) {
  CHECK_GT(window_ns_, 0u);
}

UseWindowData* UseSeries::WindowAt(Nanos t) {
  uint64_t idx = t / window_ns_;
  Slot& slot = ring_[idx % ring_.size()];
  if (slot.used && slot.data.index == idx) {
    return &slot.data;
  }
  if (slot.used && slot.data.index > idx) {
    // The ring has already moved past this window (a write older than the
    // retained history). Drop it rather than corrupt the newer occupant.
    ++dropped_;
    return nullptr;
  }
  slot.used = true;
  slot.data = UseWindowData{};
  slot.data.index = idx;
  return &slot.data;
}

void UseSeries::AdvanceDepth(Nanos now) {
  if (now <= last_update_) {
    return;
  }
  if (depth_ <= 0) {  // nothing to integrate: skip the idle gap wholesale
    last_update_ = now;
    return;
  }
  Nanos t = last_update_;
  while (t < now) {
    uint64_t idx = t / window_ns_;
    Nanos window_end = (idx + 1) * window_ns_;
    Nanos segment_end = std::min(now, window_end);
    Nanos dt = segment_end - t;
    if (UseWindowData* w = WindowAt(t)) {
      w->depth_ns += static_cast<uint64_t>(depth_) * dt;
      w->active_ns += dt;
      if (depth_ > w->peak_depth) {
        w->peak_depth = depth_;
      }
    }
    t = segment_end;
  }
  last_update_ = now;
}

void UseSeries::RecordUse(Nanos arrive, Nanos start, Nanos end) {
  CHECK_LE(arrive, start);
  CHECK_LE(start, end);
  if (UseWindowData* w = WindowAt(start)) {
    w->ops += 1;
    w->wait_ns += start - arrive;
  }
  Nanos t = start;
  while (t < end) {
    uint64_t idx = t / window_ns_;
    Nanos window_end = (idx + 1) * window_ns_;
    Nanos segment_end = std::min(end, window_end);
    if (UseWindowData* w = WindowAt(t)) {
      w->busy_ns += segment_end - t;
    }
    t = segment_end;
  }
}

void UseSeries::QueueDelta(Nanos now, int64_t delta) {
  AdvanceDepth(now);
  depth_ += delta;
  if (depth_ < 0) {
    depth_ = 0;  // tolerate late registration (decrement without increment)
  }
  if (UseWindowData* w = WindowAt(now)) {
    if (depth_ > w->peak_depth) {
      w->peak_depth = depth_;
    }
  }
}

void UseSeries::CompleteOp(Nanos now, Nanos wait) {
  if (UseWindowData* w = WindowAt(now)) {
    w->ops += 1;
    w->wait_ns += wait;
  }
}

void UseSeries::AddError(Nanos now) {
  if (UseWindowData* w = WindowAt(now)) {
    w->errors += 1;
  }
}

void UseSeries::ResetWindows() {
  for (Slot& slot : ring_) {
    slot = Slot{};
  }
  dropped_ = 0;
}

TelemetryHub::TelemetryHub(Nanos window_ns, size_t ring_windows)
    : window_ns_(window_ns), ring_windows_(ring_windows) {
  CHECK_GT(window_ns_, 0u);
}

UseSeries* TelemetryHub::GetSeries(const std::string& name,
                                   uint32_t capacity) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name, std::unique_ptr<UseSeries>(new UseSeries(
                                name, window_ns_, ring_windows_, capacity)))
             .first;
  }
  return it->second.get();
}

void TelemetryHub::DeclareEdge(const std::string& parent,
                               const std::string& child) {
  edges_.emplace_back(parent, child);
}

TelemetrySnapshot TelemetryHub::Snapshot(Nanos end) {
  TelemetrySnapshot snap;
  snap.window_ns = window_ns_;
  snap.end_ns = end;
  for (auto& [name, series] : series_) {
    series->AdvanceDepth(end);
    UseSeriesData data;
    data.name = name;
    data.capacity = series->capacity_;
    for (const UseSeries::Slot& slot : series->ring_) {
      if (slot.used) {
        data.windows.push_back(slot.data);
      }
    }
    std::sort(data.windows.begin(), data.windows.end(),
              [](const UseWindowData& a, const UseWindowData& b) {
                return a.index < b.index;
              });
    if (!data.windows.empty()) {
      snap.series.push_back(std::move(data));
    }
  }
  snap.edges = edges_;
  std::sort(snap.edges.begin(), snap.edges.end());
  snap.edges.erase(std::unique(snap.edges.begin(), snap.edges.end()),
                   snap.edges.end());
  return snap;
}

void TelemetryHub::Reset() {
  for (auto& [name, series] : series_) {
    series->ResetWindows();
  }
}

void TelemetrySnapshot::WriteJson(std::ostream& os) const {
  os << "{\"window_ns\":" << window_ns << ",\"end_ns\":" << end_ns
     << ",\"series\":[";
  for (size_t i = 0; i < series.size(); ++i) {
    const UseSeriesData& s = series[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"capacity\":" << s.capacity << ",\"windows\":[";
    for (size_t j = 0; j < s.windows.size(); ++j) {
      const UseWindowData& w = s.windows[j];
      os << (j ? "," : "") << "{\"i\":" << w.index << ",\"busy\":" << w.busy_ns
         << ",\"depth\":" << w.depth_ns << ",\"active\":" << w.active_ns
         << ",\"wait\":" << w.wait_ns << ",\"ops\":" << w.ops
         << ",\"err\":" << w.errors << ",\"peak\":" << w.peak_depth << "}";
    }
    os << "]}";
  }
  os << "],\"edges\":[";
  for (size_t i = 0; i < edges.size(); ++i) {
    os << (i ? "," : "") << "[\"" << edges[i].first << "\",\""
       << edges[i].second << "\"]";
  }
  os << "]}\n";
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace solros
