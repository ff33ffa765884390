// Data movement engines over the PCIe fabric.
//
//  * DmaEngine — the per-processor DMA block (8 channels on both Xeon and
//    Xeon Phi, §5): high setup latency, high bandwidth, real memcpy of the
//    payload once the simulated transfer completes.
//  * WindowCopier — CPU load/store through a system-mapped PCIe window:
//    no setup cost, each cache line is its own PCIe transaction, so small
//    copies are fast and large ones are slow (§4.2.1 / Fig. 4).
//
// Both move real bytes; simulated time is charged per the calibrated model.
#ifndef SOLROS_SRC_HW_DMA_H_
#define SOLROS_SRC_HW_DMA_H_

#include <algorithm>
#include <cstdint>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {

// The copy cost model (Fig. 4), ignoring queueing on channels and links.
// Time for a DMA copy of `bytes` initiated by the given side: channel
// setup plus line rate.
inline Nanos DmaCopyTime(const HwParams& params, uint64_t bytes,
                         bool initiator_is_host) {
  Nanos init = initiator_is_host ? params.dma_init_host : params.dma_init_phi;
  double bw = initiator_is_host ? params.dma_bw_host : params.dma_bw_phi;
  return init + TransferTime(bytes, bw);
}

// Time for a load/store (memcpy) copy of `bytes` through a system-mapped
// window.
inline Nanos MemcpyCopyTime(const HwParams& params, uint64_t bytes,
                            bool initiator_is_host) {
  Nanos lat = initiator_is_host ? params.memcpy_small_latency_host
                                : params.memcpy_small_latency_phi;
  if (bytes <= 64) {
    return lat;  // a single posted cache-line transaction
  }
  // Write-combining covers the first memcpy_fast_region bytes; beyond
  // that the stream throttles to the per-transaction rate.
  uint64_t fast = std::min(bytes, params.memcpy_fast_region) - 64;
  uint64_t slow = bytes > params.memcpy_fast_region
                      ? bytes - params.memcpy_fast_region
                      : 0;
  double stream_bw = initiator_is_host ? params.memcpy_stream_bw_host
                                       : params.memcpy_stream_bw_phi;
  return lat + TransferTime(fast, params.memcpy_fast_bw) +
         TransferTime(slow, stream_bw);
}

class DmaEngine {
 public:
  // `owner` is the processor whose DMA block this is; initiator asymmetry
  // (host 6.0 GB/s vs Phi 2.6 GB/s, Fig. 4) follows from the owner type.
  DmaEngine(Simulator* sim, PcieFabric* fabric, const HwParams& params,
            DeviceId owner);

  // Copies src -> dst (equal lengths), charging channel setup plus fabric
  // occupancy; bytes are physically copied when the transfer completes.
  // Fails (kIoError, no bytes moved) when the `hw.dma.error` fault point
  // fires after channel setup. `ctx` links the dma.copy span to the
  // request being served (untraced when zero).
  Task<Status> Copy(MemRef dst, MemRef src, TraceContext ctx = {});

  // Estimated duration for a copy of `bytes`, ignoring queueing.
  Nanos TimeFor(uint64_t bytes) const {
    return DmaCopyTime(params_, bytes, initiator_is_host_);
  }

  double bandwidth() const { return bandwidth_; }
  Nanos init_latency() const { return init_latency_; }
  uint64_t copies_issued() const { return copies_; }

 private:
  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  DeviceId owner_;
  bool initiator_is_host_;
  double bandwidth_;
  Nanos init_latency_;
  MultiServerResource channels_;
  uint64_t copies_ = 0;
  UseSeries* use_ = nullptr;  // channel busy intervals + engine errors
};

// CPU-driven copy through a system-mapped window.
class WindowCopier {
 public:
  WindowCopier(Simulator* sim, const HwParams& params)
      : sim_(sim), params_(params) {}

  // `initiator_is_host` selects the asymmetric cost curve.
  Task<void> Copy(MemRef dst, MemRef src, bool initiator_is_host);

  Nanos TimeFor(uint64_t bytes, bool initiator_is_host) const {
    return MemcpyCopyTime(params_, bytes, initiator_is_host);
  }

 private:
  Simulator* sim_;
  HwParams params_;
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_DMA_H_
