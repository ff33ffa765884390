// SLO watchdog: per-stage latency budgets evaluated live.
//
// The watchdog hangs off the Tracer's span-close listener and feeds each
// traced span into a per-trace StageAccumulator (src/sim/attribution.h), so
// a request's stages are exactly the ones ComputeStageBreakdowns reports.
// When a traced request's *root* span closes, its breakdown is compared
// against the armed budgets (0 = stage unarmed):
//
//   * any stage over budget counts one violation (the first offending
//     stage, in blame order, is recorded as the reason);
//   * under tail-based sampling the violating trace is flagged, so its
//     whole span tree is kept — overload forensics without any fault
//     injected.
//
// Root spans are evaluated as they close; the RPC pumps record queue spans
// before waking the caller, so every child stage of a request is already
// accumulated when its root closes. Budgets come from the bench --slo-ns
// flag (total) and the SOLROS_SLO_STAGES env ("device=200000,queue=50000").
#ifndef SOLROS_SRC_SIM_SLO_WATCHDOG_H_
#define SOLROS_SRC_SIM_SLO_WATCHDOG_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/sim/attribution.h"
#include "src/sim/trace.h"

namespace solros {

struct SloBudgets {
  std::array<Nanos, kStageCount> ns{};  // indexed by Stage; 0 = unarmed

  Nanos& operator[](Stage stage) { return ns[static_cast<size_t>(stage)]; }
  bool any() const {
    return std::ranges::any_of(ns, [](Nanos budget) { return budget != 0; });
  }
};

// Parses SOLROS_SLO_STAGES: comma-separated "<stage>=<ns>" items, <stage>
// a kStages name and <ns> a decimal integer. Unset = no budgets. Any other
// item is an InvalidArgument error naming it.
Result<SloBudgets> SloBudgetsFromEnv();

// The first stage of `b`, in blame order, over its armed budget; empty
// when within budget.
std::string_view OverBudgetStage(const SloBudgets& budgets,
                                 const StageBreakdown& b);

class SloWatchdog {
 public:
  // The watchdog must outlive the tracer binding (or the tracer must not
  // close spans after the watchdog dies); benches scope both together.
  explicit SloWatchdog(SloBudgets budgets) : budgets_(budgets) {}

  // Installs this watchdog as `tracer`'s span-close listener. When the
  // tracer samples (Tracer::EnableSampling), every violating root is also
  // FlagTrace'd so tail-based retention keeps all SLO-violating traces.
  void Bind(Tracer* tracer);

  uint64_t roots_seen() const { return roots_seen_; }
  uint64_t violations() const { return violations_; }
  const std::string& worst_stage() const { return worst_stage_; }

  // "slo_watchdog: roots=N violations=M worst=<stage>" — one
  // deterministic line for bench output and CI gating.
  std::string Summary() const;

 private:
  void OnSpanClosed(const SpanRecord& record);

  SloBudgets budgets_;
  Tracer* tracer_ = nullptr;  // set by Bind; for FlagTrace under sampling
  std::map<uint64_t, StageAccumulator> open_;  // trace id -> spans so far
  uint64_t roots_seen_ = 0;
  uint64_t violations_ = 0;
  std::string worst_stage_;  // stage of the latest violation
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SLO_WATCHDOG_H_
