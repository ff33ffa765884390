// NetPlug: the send-side staging layer of the net data path (DESIGN.md
// §5.5). One plug fronts one SimRing direction (the proxy's inbound ring
// toward a phi, or a stub's outbound ring toward the host) and implements
// two independently ablatable mechanisms:
//
//  * segment coalescing (options.coalescing) — same-socket kData payloads
//    accumulate in a bounded per-socket stage and seal into ONE
//    multi-segment NetEvent when the stage reaches net_coalesce_bytes or
//    the plug window expires (the iosched plug idea, applied to TCP — the
//    GSO analogue);
//  * vectored push (options.vectored_push) — sealed records accumulate and
//    ride ONE ring push (one doorbell) as a kBatch frame, up to
//    max_events_per_push records per doorbell.
//
// With both mechanisms off every Send* is an unmodified single-record ring
// push — byte-identical timing to the pre-plug path (the counters below
// are pure bookkeeping) — so legacy configurations are unaffected.
//
// Attribution: time a traced message spends staged is recorded as a
// retroactive "net.plug.wait" span (a queue-stage bucket, like
// net.queue.event), so coalesced traces still sum exactly to their roots.
#ifndef SOLROS_SRC_NET_NET_PLUG_H_
#define SOLROS_SRC_NET_NET_PLUG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/net/net_frame.h"
#include "src/net/net_options.h"
#include "src/rpc/messages.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/transport/sim_ring.h"

namespace solros {

class NetPlug {
 public:
  // `counter_prefix` namespaces the doorbell metrics ("net.proxy" on the
  // host side, "net.stub" on the phi side).
  NetPlug(Simulator* sim, SimRing* ring, const NetPathOptions& options,
          const std::string& counter_prefix);

  // Queues one kData message (header context = the message's context).
  // Returns the ring status on the passthrough path; staged sends return
  // OK immediately and a later flush failure counts as a drop.
  Task<Status> SendData(const NetEvent& header,
                        std::span<const uint8_t> payload);

  // Connection lifecycle events (kAccepted / kPeerClosed): never coalesced;
  // any staged data for the same socket seals first so per-socket event
  // order is preserved, and the pending queue flushes immediately (these
  // are rare and latency-sensitive).
  Task<Status> SendControl(const NetEvent& event);

  // Seals every stage and pushes everything pending (Close barriers).
  Task<Status> Flush();

  // Staged + pending bytes not yet pushed into the ring (the balancer adds
  // this to the ring's in-flight bytes for post-coalescing backlog).
  uint64_t backlog_bytes() const { return staged_bytes_ + pending_bytes_; }
  // Sockets holding unsealed segments: what the next plug tick walks.
  size_t staged_sockets() const { return stages_.size(); }

  uint64_t doorbells() const { return doorbells_; }
  uint64_t events_pushed() const { return events_pushed_; }

 private:
  struct SocketStage {
    std::vector<NetSegment> segs;
    std::vector<uint8_t> bytes;
    std::vector<Nanos> staged_at;  // parallel to segs, for net.plug.wait
  };

  static Task<void> PlugTimer(NetPlug* self);
  // Size-triggered flush, spawned detached so the ring push never runs
  // inside the SendData caller's open service span (see net_plug.cc).
  static Task<void> DetachedFlush(NetPlug* self);

  void SealStage(int64_t sock, SocketStage* stage);
  void SealAll();
  void Enqueue(std::vector<uint8_t> record);
  void ArmTimer();
  void ScheduleFlush();
  // Pushes pending records, batching up to max_events_per_push per
  // doorbell when vectored push is on.
  Task<Status> FlushPending();

  Simulator* sim_;
  SimRing* ring_;
  NetPathOptions options_;

  std::map<int64_t, SocketStage> stages_;  // live only, sealed in id order
  uint64_t staged_bytes_ = 0;
  std::deque<std::vector<uint8_t>> pending_;
  uint64_t pending_bytes_ = 0;
  bool timer_armed_ = false;
  bool flushing_ = false;
  bool flush_scheduled_ = false;
  Condition space_;  // staging_capacity backpressure

  uint64_t doorbells_ = 0;
  uint64_t events_pushed_ = 0;
  Counter* const c_doorbells_;
  Counter* const c_events_pushed_;
  Counter* const c_coalesced_segments_;
  Counter* const c_plug_drops_;
  LatencyHistogram* const h_events_per_push_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_PLUG_H_
