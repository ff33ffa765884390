// SimRing: the Solros ring buffer driven inside the discrete-event
// simulator with calibrated PCIe costs.
//
// The same RingBuffer data structure that runs on real threads (Fig. 8) is
// here operated by simulator tasks; each operation's cost is charged in
// simulated time:
//
//   * per-op queue CPU on the operating processor;
//   * one PCIe round trip per remote control-variable transaction the ring
//     reports (lazy vs eager replication therefore changes *time*, which is
//     exactly the Fig. 9 experiment);
//   * payload copies priced by the adaptive memcpy/DMA policy when the
//     operating port is on the shadow side (ring memory lives on the master
//     device), or at host memory bandwidth when local.
//
// Send/Receive are blocking in simulated time (they wait on conditions when
// the ring is full/empty), which is what the OS services want; the RPC
// layer (src/rpc) builds message channels on top of a SimRing pair. Each
// Send or Receive is one coroutine frame: the queue operation, its charges
// and the copy into or out of the reserved slot all run in its own body.
#ifndef SOLROS_SRC_TRANSPORT_SIM_RING_H_
#define SOLROS_SRC_TRANSPORT_SIM_RING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/transport/adaptive_copy.h"
#include "src/transport/ring_buffer.h"

namespace solros {

struct SimRingConfig {
  // Telemetry identity: when set and the simulator carries a TelemetryHub,
  // the ring reports occupancy/waits into the "ring.<name>" USE series.
  std::string name;
  size_t capacity = 1 << 20;
  // Where the master ring buffer's memory lives (§4.2.2: "deciding where to
  // locate a master ring buffer is one of the major decisions").
  DeviceId master_device;
  // The two ports.
  DeviceId producer_device;
  DeviceId consumer_device;
  Processor* producer_cpu = nullptr;
  Processor* consumer_cpu = nullptr;
  // Ring-buffer behaviour (lazy replication, combining) — see RingBuffer.
  bool lazy_update = true;
  bool combining = true;
  // Payload copy policy for the remote port.
  CopyPolicy copy_policy = CopyPolicy::kAdaptive;
};

class SimRing {
 public:
  SimRing(Simulator* sim, PcieFabric* fabric, const HwParams& params,
          const SimRingConfig& config);

  // Copies `head` then `tail` into one ring record, back to back (a header
  // and its payload need no staging buffer); waits (in sim time) while
  // full. Both spans must stay valid until the send completes.
  Task<Status> Send(std::span<const uint8_t> head,
                    std::span<const uint8_t> tail = {});

  // Copies the oldest message into `*out`, resized to fit (a reused buffer
  // keeps its capacity); waits while empty. Returns kFailedPrecondition
  // after Close() once drained.
  Task<Status> Receive(std::vector<uint8_t>* out);

  // Wakes all waiters; subsequent Receives fail once the ring drains.
  void Close();
  bool closed() const { return closed_; }

  const RingBuffer& ring() const { return ring_; }
  uint64_t messages_sent() const { return sent_; }
  uint64_t messages_received() const { return received_; }
  // Payload bytes moved through the ring; sent-received is the in-flight
  // byte backlog (the live balancer's depth signal).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  // Queue-wait attribution (only maintained while a tracer or telemetry
  // series is bound, so plain runs skip the bookkeeping): the producer
  // stamps each
  // message when SetReady makes it visible; the consumer records
  // [ready_at, dequeue_at] for the message its last successful
  // dequeue claimed. nullopt when the message predates tracer binding.
  // Meaningful for single-consumer rings (all RPC rings are).
  struct DequeueStamp {
    SimTime ready_at = 0;
    SimTime dequeue_at = 0;
  };
  std::optional<DequeueStamp> last_dequeue_stamp() const {
    return last_dequeue_stamp_;
  }

 private:
  // Remote head/tail accesses serialize on the variable's home cache line
  // and the PCIe link — modeled as a per-ring FIFO resource. This is what
  // makes the eager scheme collapse under concurrency (Fig. 9). Reserves
  // the line at call time; ready at once when there are no transactions.
  WakeAt ChargeControl(uint64_t transactions);
  // The waits of one payload copy, booked when ChargeCopy is called: the
  // transfer, then (DMA only) the engine's setup time, which starts when
  // the transfer lands. The caller awaits `transfer`, then `Delay(*setup)`,
  // so a DMA copy stays two events.
  struct CopyWaits {
    WakeAt transfer;
    std::optional<Nanos> setup;
  };
  CopyWaits ChargeCopy(RingSide side, uint64_t bytes);
  bool PortRemote(RingSide side) const;
  bool PortIsHost(RingSide side) const;

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  SimRingConfig config_;
  RingBuffer ring_;
  Condition data_avail_;
  Condition space_avail_;
  MultiServerResource control_line_;
  // Signal epochs close the poll-then-sleep race: an enqueue or dequeue
  // attempt has internal suspension points, so a notification can fire
  // while a poller is mid-attempt (and not yet waiting). Every
  // SetReady/SetDone bumps the matching epoch; a waiter only sleeps if the
  // epoch is unchanged since before its failed poll.
  uint64_t data_epoch_ = 0;
  uint64_t space_epoch_ = 0;
  bool closed_ = false;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  // In-flight ready stamps keyed by ring slot (see last_dequeue_stamp()).
  std::unordered_map<const void*, SimTime> ready_at_;
  std::optional<DequeueStamp> last_dequeue_stamp_;
  // USE telemetry (null = off): occupancy depth between SetReady and
  // dequeue, per-message queue wait, stall faults as errors.
  UseSeries* use_ = nullptr;
};

}  // namespace solros

#endif  // SOLROS_SRC_TRANSPORT_SIM_RING_H_
