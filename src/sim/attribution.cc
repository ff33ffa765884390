#include "src/sim/attribution.h"

#include <map>
#include <optional>
#include <string>

#include "src/base/logging.h"
#include "src/base/metrics.h"

namespace solros {
namespace {

// Subtracts b from a, clamping at zero; clears *exact on clamp.
Nanos ClampSub(Nanos a, Nanos b, bool* exact) {
  if (b > a) {
    *exact = false;
    return 0;
  }
  return a - b;
}

// The stage a traced non-root span's duration counts toward, or nullopt for
// spans inside another stage (fs.data.p2p, cache lookups, ...). Service
// spans map to kProxy gross of the device, DMA and scheduler time nested in
// them; StageAccumulator::Finish nets that out. kTotal and kStub are never
// returned: the root span is the total and the stub is what remains.
std::optional<Stage> StageOfSpan(std::string_view name) {
  if (name == "rpc.queue.req" || name == "rpc.queue.resp" ||
      name == "net.queue.event" || name == "net.plug.wait") {
    return Stage::kQueue;
  }
  if (name == "fs.proxy.service" || name == "net.proxy.rpc" ||
      name == "net.proxy.inbound" || name == "net.proxy.outbound" ||
      name == "net.server.stack") {
    return Stage::kProxy;
  }
  if (name == "net.wire.transit") {
    return Stage::kWire;
  }
  if (name == "nvme.batch") {
    return Stage::kDevice;
  }
  if (name == "dma.copy") {
    return Stage::kCopy;
  }
  if (name == "iosched.queue") {
    return Stage::kIosched;
  }
  return std::nullopt;
}

}  // namespace

void StageAccumulator::Add(std::string_view name, bool root,
                           Nanos duration) {
  if (root) {
    sums_[static_cast<size_t>(Stage::kTotal)] += duration;
    has_root_ = true;
    net_ = name.starts_with("net.");
  } else if (std::optional<Stage> stage = StageOfSpan(name)) {
    sums_[static_cast<size_t>(*stage)] += duration;
  }
}

StageBreakdown StageAccumulator::Finish(uint64_t trace_id) const {
  StageBreakdown b;
  b.trace_id = trace_id;
  b.net = net_;
  for (size_t i = 0; i < kStageCount; ++i) {
    b.*kStages[i].field = sums_[i];
  }
  // b.proxy holds the gross service time until here.
  const Nanos service = b.proxy;
  b.proxy = ClampSub(service, b.device + b.copy_dma + b.iosched_wait,
                     &b.exact);
  b.stub = ClampSub(b.total, b.queue_wait + service + b.wire, &b.exact);
  return b;
}

std::vector<StageBreakdown> ComputeStageBreakdowns(const Tracer& tracer) {
  // std::map keys the result on trace id => deterministic order.
  std::map<uint64_t, StageAccumulator> traces;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.open || span.trace_id == 0) {
      continue;
    }
    traces[span.trace_id].Add(span.name, span.parent == 0,
                              span.end - span.begin);
  }
  std::vector<StageBreakdown> out;
  out.reserve(traces.size());
  for (const auto& [trace_id, acc] : traces) {
    if (acc.has_root()) {
      out.push_back(acc.Finish(trace_id));
    }
  }
  return out;
}

Nanos StageSum(const StageBreakdown& b) {
  Nanos sum = 0;
  for (size_t i = 0; i < kStageCount; ++i) {
    if (static_cast<Stage>(i) != Stage::kTotal) {
      sum += b.*kStages[i].field;
    }
  }
  return sum;
}

StageBreakdown MeanStages(const std::vector<StageBreakdown>& breakdowns) {
  CHECK(!breakdowns.empty());
  StageBreakdown mean;
  for (const StageBreakdown& b : breakdowns) {
    for (const StageInfo& info : kStages) {
      mean.*info.field += b.*info.field;
    }
  }
  for (const StageInfo& info : kStages) {
    mean.*info.field /= breakdowns.size();
  }
  return mean;
}

void RecordStageMetrics(const std::vector<StageBreakdown>& breakdowns) {
  MetricRegistry& registry = MetricRegistry::Default();
  // Per-path handles, indexed by Stage; null where the path's taxonomy
  // lacks the stage.
  std::array<LatencyHistogram*, kStageCount> fs{};
  std::array<LatencyHistogram*, kStageCount> net{};
  for (size_t i = 0; i < kStageCount; ++i) {
    const std::string metric = std::string(kStages[i].metric) + "_ns";
    if (kStages[i].fs) {
      fs[i] = registry.GetHistogram("fs.stage." + metric);
    }
    if (kStages[i].net) {
      net[i] = registry.GetHistogram("net.stage." + metric);
    }
  }
  for (const StageBreakdown& b : breakdowns) {
    const auto& histograms = b.net ? net : fs;
    for (size_t i = 0; i < kStageCount; ++i) {
      if (histograms[i] != nullptr) {
        histograms[i]->Record(b.*kStages[i].field);
      }
    }
  }
}

}  // namespace solros
