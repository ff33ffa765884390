// Adaptive copy policy (§4.2.4 / Fig. 10).
//
// rb_copy_to_rb_buf / rb_copy_from_rb_buf "use memcpy for small data and DMA
// copy for large data to get the best latency and throughput", with a
// per-initiator threshold: 1 KB from the host, 16 KB from the Xeon Phi
// (the Phi's DMA channel takes longer to set up). These helpers compute the
// simulated cost of a cross-PCIe copy under each policy from the cost model
// in src/hw/dma.h; Fig. 10's bench compares kMemcpy / kDma / kAdaptive
// directly.
#ifndef SOLROS_SRC_TRANSPORT_ADAPTIVE_COPY_H_
#define SOLROS_SRC_TRANSPORT_ADAPTIVE_COPY_H_

#include <cstdint>

#include "src/hw/dma.h"
#include "src/hw/params.h"

namespace solros {

enum class CopyPolicy { kMemcpy, kDma, kAdaptive };

// True when the adaptive policy picks DMA for this copy.
inline bool AdaptivePicksDma(const HwParams& params, uint64_t bytes,
                             bool initiator_is_host) {
  uint64_t threshold = initiator_is_host ? params.adaptive_threshold_host
                                         : params.adaptive_threshold_phi;
  return bytes > threshold;
}

// Copy time under a given policy.
inline Nanos CopyTime(const HwParams& params, uint64_t bytes,
                      bool initiator_is_host, CopyPolicy policy) {
  switch (policy) {
    case CopyPolicy::kMemcpy:
      return MemcpyCopyTime(params, bytes, initiator_is_host);
    case CopyPolicy::kDma:
      return DmaCopyTime(params, bytes, initiator_is_host);
    case CopyPolicy::kAdaptive:
      return AdaptivePicksDma(params, bytes, initiator_is_host)
                 ? DmaCopyTime(params, bytes, initiator_is_host)
                 : MemcpyCopyTime(params, bytes, initiator_is_host);
  }
  return 0;
}

}  // namespace solros

#endif  // SOLROS_SRC_TRANSPORT_ADAPTIVE_COPY_H_
