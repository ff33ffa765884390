// NetPlug: the send side of the net data path (DESIGN.md §5.5). One plug
// fronts one SimRing direction (the proxy's inbound ring toward a phi, or a
// stub's outbound ring toward the host).
//
// With a zero plug window every Send is one ring push (one doorbell). With
// a window, records queue in the plug and ride one kBatch push per flush:
// a flush runs one window after the first record queued, or as soon as
// kMaxEventsPerPush records or kMaxPushBytes bytes are pending.
//
// Attribution: the time a traced record spends queued is recorded at flush
// as a retroactive "net.plug.wait" span (a queue-stage bucket, like
// net.queue.event), so batched traces still sum exactly to their roots.
#ifndef SOLROS_SRC_NET_NET_PLUG_H_
#define SOLROS_SRC_NET_NET_PLUG_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/units.h"
#include "src/rpc/messages.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/transport/sim_ring.h"

namespace solros {

class NetPlug {
 public:
  // Events per doorbell and bytes per kBatch frame, both bounded so one
  // frame never approaches the ring capacity.
  static constexpr uint32_t kMaxEventsPerPush = 32;
  static constexpr uint64_t kMaxPushBytes = KiB(256);
  // Queued bytes per plug before senders backpressure.
  static constexpr uint64_t kStagingCapacity = MiB(1);

  // `counter_prefix` namespaces the doorbell metrics ("net.proxy" on the
  // host side, "net.stub" on the phi side).
  NetPlug(Simulator* sim, SimRing* ring, Nanos window,
          const std::string& counter_prefix);

  // Sends one event (`payload` follows the header; empty for kAccepted and
  // kPeerClosed). With a zero window this returns the ring status; queued
  // sends return OK at once, and a later flush failure counts as a drop.
  // Records leave in Send order, so per-socket event order holds.
  Task<Status> Send(const NetEvent& header, std::span<const uint8_t> payload);

  // Pushes everything queued, up to kMaxEventsPerPush events per doorbell
  // (the plug timer, size triggers and Close barriers). Returns at once if
  // a flush is already in flight: that flusher drains what is queued.
  Task<Status> Flush();

  // Queued bytes not yet pushed into the ring (the balancer adds this to
  // the ring's in-flight bytes).
  uint64_t backlog_bytes() const { return pending_bytes_; }

  uint64_t doorbells() const { return doorbells_; }
  uint64_t events_pushed() const { return events_pushed_; }

 private:
  // One encoded event plus what its net.plug.wait span needs at flush.
  struct PendingRecord {
    PendingRecord(std::vector<uint8_t> b, TraceContext c, Nanos at)
        : bytes(std::move(b)), ctx(c), queued_at(at) {}
    std::vector<uint8_t> bytes;
    TraceContext ctx;
    Nanos queued_at = 0;
  };

  static Task<void> PlugTimer(NetPlug* self);
  // Size-triggered flush, spawned detached so the ring push never runs
  // inside the Send caller's open service span (see net_plug.cc).
  static Task<void> DetachedFlush(NetPlug* self);

  void CountPush(uint64_t events);
  void ArmTimer();
  void ScheduleFlush();

  Simulator* sim_;
  SimRing* ring_;
  const Nanos window_;

  std::deque<PendingRecord> pending_;
  uint64_t pending_bytes_ = 0;
  bool timer_armed_ = false;
  bool flushing_ = false;
  bool flush_scheduled_ = false;
  Condition space_;  // kStagingCapacity backpressure

  uint64_t doorbells_ = 0;
  uint64_t events_pushed_ = 0;
  Counter* const c_doorbells_;
  Counter* const c_events_pushed_;
  Counter* const c_plug_drops_;
  LatencyHistogram* const h_events_per_push_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_PLUG_H_
