// Per-request latency attribution over a causally-linked trace.
//
// Fig. 13 of the paper decomposes one file-system RPC's latency into
// file-system, transport, and storage portions. With trace contexts
// threaded through the stack (src/sim/trace.h) each RPC is one span tree,
// so the split can be *measured per request* instead of reconstructed from
// aggregate span sums. This file is the one place that knows the stage
// taxonomy: StageAccumulator maps each span name to its stage, sums one
// trace's spans, and subtracts out the two residual stages. The
// batch pass (ComputeStageBreakdowns), the streaming SLO watchdog
// (src/sim/slo_watchdog.h), and the offline tools/trace_summary all feed
// spans through it. The stages, in the watchdog's blame order:
//
//   total       the root span (fs.stub.call / net.stub.call /
//               net.client.op): the caller's end-to-end view of the
//               request, retries included;
//   queue_wait  rpc.queue.req + rpc.queue.resp + net.queue.event +
//               net.plug.wait: time a fully-written message sat ready in a
//               ring (or a plug) before the peer dequeued it;
//   iosched     iosched.queue: time the request's device I/O sat queued in
//               the host-side I/O scheduler before its batch was submitted;
//   proxy       service-span time (fs.proxy.service, net.proxy.rpc,
//               net.proxy.inbound/outbound, net.server.stack) not spent in
//               device, DMA, or scheduler spans — proxy CPU, cache staging,
//               metadata I/O, TCP segment work;
//   copy_dma    dma.copy: host-initiated DMA moving bytes to/from the
//               co-processor;
//   device      nvme.batch: doorbell-to-interrupt device time;
//   wire        net.wire.transit: client<->host NIC link time (net only);
//   stub        the remainder of total: stub CPU, ring copy in/out, RPC
//               framing, and the application's wait for its Recv.
//
// In a fault-free run the stages sum to total *exactly*: the service span
// is contained in the root span, device/DMA spans are contained in the
// service span, and the queue-wait and wire intervals are disjoint from the
// service span. When faults force retries (a dropped response leaves a
// server span running past the stub's timeout) the subtraction can go
// negative; the accumulator clamps at zero and clears `exact`.
#ifndef SOLROS_SRC_SIM_ATTRIBUTION_H_
#define SOLROS_SRC_SIM_ATTRIBUTION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace solros {

struct StageBreakdown {
  uint64_t trace_id = 0;
  Nanos total = 0;
  Nanos stub = 0;
  Nanos queue_wait = 0;
  Nanos proxy = 0;
  Nanos copy_dma = 0;
  Nanos device = 0;
  Nanos iosched_wait = 0;
  // Net-path stage (zero for FS traces).
  Nanos wire = 0;
  // Always zero: no span feeds it. Kept only because the frozen
  // perfbench/common.cc reads it.
  Nanos dispatch = 0;
  // True when the root span's name starts with "net." (net taxonomy).
  bool net = false;
  // True when the stages sum to `total` exactly (always, fault-free).
  bool exact = true;
};

// The stages, in blame order: the SLO watchdog names the first one over
// budget. Also the index into kStages and SloBudgets.
enum class Stage : uint8_t {
  kTotal,
  kQueue,
  kIosched,
  kProxy,
  kCopy,
  kDevice,
  kWire,
  kStub,
};
inline constexpr size_t kStageCount = 8;

struct StageInfo {
  std::string_view name;    // SOLROS_SLO_STAGES key, watchdog blame label
  std::string_view metric;  // "<fs|net>.stage.<metric>_ns" histogram and
                            // trace_summary row label
  Nanos StageBreakdown::*field;
  bool fs;   // part of the FS taxonomy
  bool net;  // part of the net taxonomy
};

// One row per Stage, indexed by it.
inline constexpr std::array<StageInfo, kStageCount> kStages = {{
    {"total", "total", &StageBreakdown::total, true, true},
    {"queue", "queue_wait", &StageBreakdown::queue_wait, true, true},
    {"iosched", "iosched_wait", &StageBreakdown::iosched_wait, true, false},
    {"proxy", "proxy", &StageBreakdown::proxy, true, true},
    {"copy", "copy_dma", &StageBreakdown::copy_dma, true, true},
    {"device", "device", &StageBreakdown::device, true, false},
    {"wire", "wire", &StageBreakdown::wire, false, true},
    {"stub", "stub", &StageBreakdown::stub, true, true},
}};

// Sums one trace's closed spans and splits them into a StageBreakdown.
class StageAccumulator {
 public:
  // Adds one closed span of the trace; `root` = the span has no parent.
  void Add(std::string_view name, bool root, Nanos duration);
  bool has_root() const { return has_root_; }
  // Applies the clamped proxy/stub subtraction.
  StageBreakdown Finish(uint64_t trace_id) const;

 private:
  std::array<Nanos, kStageCount> sums_{};  // indexed by Stage
  bool has_root_ = false;
  bool net_ = false;
};

// One breakdown per trace id whose root span closed, ordered by trace id
// (deterministic). Traces whose root span never closed are skipped.
std::vector<StageBreakdown> ComputeStageBreakdowns(const Tracer& tracer);

// Sum of every stage but total; equals total when the breakdown is exact.
Nanos StageSum(const StageBreakdown& b);

// Per-stage integer mean over a non-empty `breakdowns`.
StageBreakdown MeanStages(const std::vector<StageBreakdown>& breakdowns);

// Feeds each breakdown's stages into the process MetricRegistry latency
// histograms fs.stage.<metric>_ns (FS traces) or net.stage.<metric>_ns (net
// traces), one per stage of that taxonomy, so `--metrics` reports
// per-stage p50/p95/p99 per path.
void RecordStageMetrics(const std::vector<StageBreakdown>& breakdowns);

}  // namespace solros

#endif  // SOLROS_SRC_SIM_ATTRIBUTION_H_
