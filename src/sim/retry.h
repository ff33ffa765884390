// Bounded retry, written once for every fault-recovery layer that retries
// (DESIGN.md §7.2): the block store, the FS proxy's staging DMA and both
// data-plane stubs. It engages only while fault injection is armed; with
// nothing armed a call is one attempt with no timeout, and awaiting it adds
// no simulator event, so fault-free schedules do not change.
#ifndef SOLROS_SRC_SIM_RETRY_H_
#define SOLROS_SRC_SIM_RETRY_H_

#include <type_traits>
#include <utility>

#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/base/units.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {

struct RetryPolicy {
  int max_attempts = 1;  // total attempts including the first
  Nanos backoff = 0;     // delay before the first retry; doubles per retry
};

// What a retry bumps: the registry counter and the trace instant.
struct RetrySite {
  const char* counter;
  const char* track;
  const char* instant;
};

// Awaits `attempt(timeout)` until `retryable(result)` is false or `policy`
// allows no more attempts, and returns the last result. Each retry bumps
// `site`, flags trace `trace_id` for tail sampling, then backs off.
template <typename Attempt, typename Retryable>
std::invoke_result_t<Attempt&, Nanos> Retry(RetryPolicy policy, Nanos timeout,
                                            RetrySite site, uint64_t trace_id,
                                            Attempt attempt,
                                            Retryable retryable) {
  const bool armed = Faults().any_armed();
  const int attempts = armed ? policy.max_attempts : 1;
  Nanos backoff = policy.backoff;
  for (int n = 1;; ++n) {
    auto result = co_await attempt(armed ? timeout : 0);
    if (n >= attempts || !retryable(result)) {
      co_return std::move(result);
    }
    MetricRegistry::Default().GetCounter(site.counter)->Increment();
    Simulator* sim = co_await CurrentSimulator();
    TRACE_INSTANT(sim, site.track, site.instant);
    FlagTraceError(sim, trace_id);
    co_await Delay(backoff);
    backoff *= 2;
  }
}

}  // namespace solros

#endif  // SOLROS_SRC_SIM_RETRY_H_
