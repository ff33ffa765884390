#include "src/sim/slo_watchdog.h"

#include <charconv>
#include <cstdlib>

#include "src/base/logging.h"

namespace solros {

Result<SloBudgets> SloBudgetsFromEnv() {
  SloBudgets budgets;
  const char* env = std::getenv("SOLROS_SLO_STAGES");
  if (env == nullptr) {
    return budgets;
  }
  std::string_view spec(env);
  while (!spec.empty()) {
    size_t comma = spec.find(',');
    std::string_view item = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view()
                                           : spec.substr(comma + 1);
    size_t eq = item.find('=');
    size_t i = 0;
    while (i < kStageCount && kStages[i].name != item.substr(0, eq)) {
      ++i;
    }
    Nanos ns = 0;
    const char* end = item.data() + item.size();
    bool parsed = false;
    if (eq != std::string_view::npos && eq + 1 < item.size()) {
      auto result = std::from_chars(item.data() + eq + 1, end, ns);
      parsed = result.ec == std::errc() && result.ptr == end;
    }
    if (i == kStageCount || !parsed) {
      std::string stages;
      for (const StageInfo& info : kStages) {
        stages.append(" ").append(info.name);
      }
      return InvalidArgumentError("SOLROS_SLO_STAGES: bad item \"" +
                                  std::string(item) +
                                  "\" (want <stage>=<ns>, stage one of" +
                                  stages + ")");
    }
    budgets.ns[i] = ns;
  }
  return budgets;
}

std::string_view OverBudgetStage(const SloBudgets& budgets,
                                 const StageBreakdown& b) {
  for (size_t i = 0; i < kStageCount; ++i) {
    if (budgets.ns[i] != 0 && b.*kStages[i].field > budgets.ns[i]) {
      return kStages[i].name;
    }
  }
  return {};
}

void SloWatchdog::Bind(Tracer* tracer) {
  CHECK(tracer != nullptr);
  tracer_ = tracer;
  tracer->set_span_close_listener(
      [this](const SpanRecord& record) { OnSpanClosed(record); });
}

void SloWatchdog::OnSpanClosed(const SpanRecord& record) {
  if (record.trace_id == 0) {
    return;
  }
  auto it = open_.try_emplace(record.trace_id).first;
  it->second.Add(record.name, record.parent == 0, record.end - record.begin);
  if (record.parent != 0) {
    return;
  }
  // Root close: every child stage already arrived (the pumps record queue
  // spans before waking the caller), so evaluate and retire the trace.
  ++roots_seen_;
  StageBreakdown breakdown = it->second.Finish(record.trace_id);
  open_.erase(it);
  std::string_view stage = OverBudgetStage(budgets_, breakdown);
  if (stage.empty()) {
    return;
  }
  ++violations_;
  worst_stage_ = std::string(stage);
  // Under tail-based sampling this pins the trace before the root's
  // keep/drop decision (the tracer notifies listeners first).
  tracer_->FlagTrace(record.trace_id, Tracer::TraceFlag::kSloViolation);
}

std::string SloWatchdog::Summary() const {
  std::string out = "slo_watchdog: roots=" + std::to_string(roots_seen_) +
                    " violations=" + std::to_string(violations_);
  if (!worst_stage_.empty()) {
    out += " worst=" + worst_stage_;
  }
  return out;
}

}  // namespace solros
