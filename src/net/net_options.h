// Net data-path options (DESIGN.md §5.5).
//
// The net data path is one path: every send rides a NetPlug, the proxy
// drains each outbound ring with one FIFO pump that hands client delivery
// to the NIC, and the stub delivers events in ring order. The plug window
// is the only knob, and it changes timing, never bytes.
#ifndef SOLROS_SRC_NET_NET_OPTIONS_H_
#define SOLROS_SRC_NET_NET_OPTIONS_H_

#include "src/base/units.h"

namespace solros {

struct NetPathOptions {
  // 0: each send is one ring push (one doorbell). Greater than 0: records
  // queue in the plug and ride one kBatch push per flush, at most one
  // window after the first of them queued (NetPlug).
  Nanos net_plug_window_ns = 0;

  // Inert: nothing reads these. They name mechanisms that were deleted and
  // survive only because perfbench/net_workloads.cc, frozen with the
  // benchmark, still assigns them. Delete them at the next benchmark
  // change; no other file may set them.
  bool coalescing = false;
  bool vectored_push = false;
  bool adaptive_copy = false;
  bool drr_dispatch = false;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_OPTIONS_H_
