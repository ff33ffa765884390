#include "src/hw/dma.h"

#include <cstring>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {

DmaEngine::DmaEngine(Simulator* sim, PcieFabric* fabric,
                     const HwParams& params, DeviceId owner)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      owner_(owner),
      initiator_is_host_(fabric->TypeOf(owner) == DeviceType::kHost),
      bandwidth_(initiator_is_host_ ? params.dma_bw_host : params.dma_bw_phi),
      init_latency_(initiator_is_host_ ? params.dma_init_host
                                       : params.dma_init_phi),
      channels_(sim, static_cast<size_t>(params.dma_channels)) {
  if (sim->telemetry() != nullptr) {
    use_ = sim->telemetry()->GetSeries("dma." + fabric->NameOf(owner),
                                       static_cast<uint32_t>(
                                           params.dma_channels));
    channels_.set_use_series(use_);
  }
}

Task<Status> DmaEngine::Copy(MemRef dst, MemRef src, TraceContext ctx) {
  CHECK_EQ(dst.length, src.length);
  ++copies_;
  static Counter* const copies =
      MetricRegistry::Default().GetCounter("hw.dma.copies");
  static Counter* const bytes =
      MetricRegistry::Default().GetCounter("hw.dma.bytes");
  copies->Increment();
  bytes->Increment(src.length);
  ScopedSpan span(sim_, "dma", "dma.copy", ctx);
  // Channel setup: serialized on one of the engine's channels.
  co_await channels_.Use(init_latency_);
  // An injected engine error aborts after setup but before any byte moves,
  // mirroring a descriptor abort: the destination is untouched.
  static FaultPoint* const dma_error = Faults().GetPoint("hw.dma.error");
  if (dma_error->ShouldFire()) {
    static Counter* const errors =
        MetricRegistry::Default().GetCounter("hw.dma.errors");
    errors->Increment();
    TRACE_INSTANT(sim_, "dma", "fault.dma.error");
    if (use_ != nullptr) {
      use_->AddError(sim_->now());
    }
    co_return IoError("injected dma engine error");
  }
  // Peer-to-peer when neither end terminates in host DRAM; those transfers
  // are subject to the cross-NUMA relay cap (Fig. 1(a)).
  bool p2p = fabric_->TypeOf(src.device()) != DeviceType::kHost &&
             fabric_->TypeOf(dst.device()) != DeviceType::kHost;
  if (src.device() == dst.device()) {
    // Local copy within one device's memory: charged at memory bandwidth.
    co_await Delay(TransferTime(src.length, params_.host_mem_bw));
  } else {
    co_await fabric_->Transfer(src.device(), dst.device(), src.length,
                               bandwidth_, p2p);
  }
  std::memcpy(dst.span().data(), src.span().data(), src.length);
  co_return OkStatus();
}

Task<void> WindowCopier::Copy(MemRef dst, MemRef src,
                              bool initiator_is_host) {
  CHECK_EQ(dst.length, src.length);
  co_await Delay(TimeFor(src.length, initiator_is_host));
  std::memcpy(dst.span().data(), src.span().data(), src.length);
}

}  // namespace solros
