// Control-plane TCP proxy (§4.4).
//
// The proxy terminates client TCP on fast host cores and exchanges socket
// *events* and data with data-plane stubs over per-co-processor ring pairs:
//
//   inbound ring  (master at the HOST)  — kAccepted / kData / kPeerClosed
//                                         events; co-processor DMA engines
//                                         pull incoming data (§4.4.1);
//   outbound ring (master at the PHI)   — stub send records; host DMA
//                                         engines pull outgoing data.
//
// It also owns the shared listening socket (§4.4.3): multiple co-processors
// may listen on one port, and a pluggable ForwardingPolicy assigns each new
// client connection to one of them.
#ifndef SOLROS_SRC_NET_TCP_PROXY_H_
#define SOLROS_SRC_NET_TCP_PROXY_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/sharding.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/net/conntrack.h"
#include "src/net/ethernet.h"
#include "src/net/load_balancer.h"
#include "src/net/net_frame.h"
#include "src/net/net_options.h"
#include "src/net/net_plug.h"
#include "src/rpc/messages.h"
#include "src/rpc/rpc.h"
#include "src/transport/sim_ring.h"

namespace solros {

// Pure shard-pick decision, shared by TcpProxy::PickShard and its
// regression test. `depth(k)` reads shard k's live event-loop depth.
// Returns the picked shard; sets *handoff when the pick overrides the
// hash-primary. A handoff needs depth(primary) > 2*depth(lightest) + 1
// with depth(lightest) >= 0, i.e. depth(primary) >= 2 — so a shallow
// primary (the steady-state common case) skips the O(shards) scan
// entirely, with behavior identical to the always-scan implementation.
template <typename DepthFn>
int PickShardForDepths(int primary, int count, DepthFn&& depth,
                       bool* handoff) {
  *handoff = false;
  if (count <= 1) {
    return 0;
  }
  const int64_t primary_depth = depth(primary);
  if (primary_depth <= 1) {
    return primary;
  }
  int lightest = 0;
  for (int k = 1; k < count; ++k) {
    if (depth(k) < depth(lightest)) {
      lightest = k;
    }
  }
  // Handoff only on a real imbalance: the primary is carrying more than
  // double the lightest loop's depth. Hash placement stays the common case
  // so connection state keeps core affinity.
  if (primary != lightest && primary_depth > 2 * depth(lightest) + 1) {
    *handoff = true;
    return lightest;
  }
  return primary;
}

struct TcpProxyStats {
  uint64_t rpcs = 0;
  uint64_t connections_forwarded = 0;
  uint64_t inbound_messages = 0;
  uint64_t outbound_messages = 0;
  uint64_t inbound_bytes = 0;
  uint64_t outbound_bytes = 0;
  // Connections steered away from their hash-primary shard because its
  // event loop was overloaded (live load handoff).
  uint64_t shard_handoffs = 0;
};

class TcpProxy : public ServerPort {
 public:
  // `shard_cores` (optional) shards the proxy's event-loop work: each
  // connection is pinned to one core by connection hash (with a live
  // handoff to the lightest shard when the primary's depth runs away) and
  // all of its TCP processing charges go to that core, reported under
  // "net.proxy[k]". Empty => the historical single loop on `host_cpu`
  // reported as "net.proxy". The listener table and forwarding policy stay
  // shared — the shared listening socket (§4.4.3) is one accept queue no
  // matter how many shards drain it.
  TcpProxy(Simulator* sim, const HwParams& params, Processor* host_cpu,
           EthernetFabric* ethernet, std::unique_ptr<ForwardingPolicy> policy,
           std::vector<Processor*> shard_cores = {},
           const NetPathOptions& net_options = {});

  // Wires one data-plane OS: its RPC rings (stub -> proxy socket calls) and
  // the inbound/outbound data rings. Starts the serving pumps.
  void AttachDataPlane(uint32_t dataplane_id, SimRing* rpc_request,
                       SimRing* rpc_response, SimRing* inbound,
                       SimRing* outbound);

  // -- ServerPort (wire side) -------------------------------------------------
  Task<Status> OnConnect(uint64_t conn_id, uint16_t port,
                         uint32_t client_addr) override;
  Task<void> OnClientData(uint64_t conn_id, std::vector<uint8_t> data,
                          TraceContext ctx) override;
  Task<void> OnClientClose(uint64_t conn_id) override;

  // Per-connection table (always on; see src/net/conntrack.h).
  ConnTracker& conntrack() { return *conntrack_; }
  const ConnTracker& conntrack() const { return *conntrack_; }

  const TcpProxyStats& stats() const { return stats_; }
  ForwardingPolicy* policy() { return policy_.get(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  // Live event-loop depth of shard `k` (requests + events in service).
  int64_t ShardDepth(int k) const {
    const Shard& shard = shards_[static_cast<size_t>(k)];
    return shard.use != nullptr ? shard.use->depth() : 0;
  }

 private:
  // One claimed outbound ring record plus its dequeue stamp (captured at
  // Receive time; the DRR pump processes it later). Deliberately not an
  // aggregate — see NetStub::RecvItem for the GCC 12 coroutine-parameter
  // pitfall.
  struct OutboundItem {
    OutboundItem() = default;
    OutboundItem(std::vector<uint8_t> r,
                 std::optional<SimRing::DequeueStamp> s)
        : record(std::move(r)), stamp(s) {}
    std::vector<uint8_t> record;
    std::optional<SimRing::DequeueStamp> stamp;
  };
  struct DataPlane {
    uint32_t id = 0;
    SimRing* inbound = nullptr;
    SimRing* outbound = nullptr;
    std::unique_ptr<RpcServer<NetRequest, NetResponse>> rpc;
    // Send-side staging for the inbound ring (DESIGN.md §5.5); passthrough
    // when both staging mechanisms are off.
    std::unique_ptr<NetPlug> plug;
    // DRR outbound state (options.drr_dispatch): records claimed by this
    // plane's feeder, admitted fairly by the shared pump into `work`, and
    // serviced by this plane's worker — planes process concurrently, DRR
    // only decides admission order.
    std::deque<OutboundItem> drr_queue;
    std::deque<OutboundItem> work;
    uint64_t drr_deficit = 0;
  };
  // One event-loop shard: a dedicated core plus its USE series
  // ("net.proxy[k]"; the unsharded proxy is one shard named "net.proxy").
  struct Shard {
    Processor* core = nullptr;
    UseSeries* use = nullptr;
  };
  // One listener entry on a (shared) port.
  struct PortListeners {
    // (dataplane id, stub-side listener handle), plus balance bookkeeping.
    std::vector<std::pair<uint32_t, int64_t>> members;
    std::vector<BalanceTarget> targets;
  };
  struct ProxySocket {
    int64_t handle = 0;
    uint64_t conn_id = 0;
    uint32_t dataplane = 0;
    uint32_t shard = 0;  // event-loop shard all this socket's work runs on
    bool open = true;
  };

  Task<NetResponse> HandleRpc(uint32_t dataplane_id, NetRequest request);
  static Task<void> OutboundPump(TcpProxy* self, DataPlane* dataplane);
  // DRR mode: one feeder per plane claims ring records into drr_queue; the
  // single shared pump sweeps planes deficit-round-robin so one hot phi
  // cannot starve the rest.
  static Task<void> OutboundFeeder(TcpProxy* self, DataPlane* dataplane);
  static Task<void> DrrOutboundPump(TcpProxy* self);
  // DRR mode: services one plane's admitted records, concurrently with the
  // other planes' workers (the pump alone would serialize every plane's
  // shard compute and wire hops behind one loop).
  static Task<void> DrrPlaneWorker(TcpProxy* self, DataPlane* dataplane);
  // DRR mode: client-wire delivery of one record's messages, spawned off
  // the worker loop so the NIC hop overlaps the next record's shard
  // compute. Per-connection order is preserved: one worker per plane emits
  // the trains in order and the downlink wire is FIFO with fixed latency.
  static Task<void> DeliverTrain(
      TcpProxy* self, uint64_t conn_id,
      std::vector<std::pair<TraceContext, std::vector<uint8_t>>> messages);
  // Services one outbound ring record: a legacy single-message event, a
  // coalesced multi-segment event, or a kBatch of either.
  Task<void> ProcessOutboundRecord(DataPlane* dataplane,
                                   std::vector<uint8_t> record,
                                   std::optional<SimRing::DequeueStamp> stamp);
  // `frame` aliases the caller's record, which the caller keeps alive for
  // the duration of the call.
  Task<void> ProcessOutboundEvent(DataPlane* dataplane, NetFrameView frame,
                                  std::optional<SimRing::DequeueStamp> stamp);
  Task<Status> SendEvent(uint32_t dataplane_id, const NetEvent& event,
                         std::span<const uint8_t> payload);
  // Shard for a new wire connection: connection hash, overridden by a
  // handoff to the lightest shard when the primary's live depth runs away.
  uint32_t PickShard(uint64_t conn_id);

  Simulator* sim_;
  HwParams params_;
  Processor* host_cpu_;
  EthernetFabric* ethernet_;
  NetPathOptions options_;
  std::unique_ptr<ForwardingPolicy> policy_;
  // Event-loop shards; size 1 reproduces the historical single proxy loop.
  std::vector<Shard> shards_;
  std::map<uint32_t, DataPlane> dataplanes_;
  std::map<uint16_t, PortListeners> listeners_;
  std::unordered_map<int64_t, ProxySocket> sockets_;      // by proxy handle
  std::unordered_map<uint64_t, int64_t> conn_to_socket_;  // conn -> handle
  int64_t next_handle_ = 1;
  TcpProxyStats stats_;
  std::unique_ptr<ConnTracker> conntrack_;
  // DRR pump coordination: feeders bump the epoch and notify on every
  // claimed record; the pump waits when every plane's queue is empty.
  Condition drr_ready_;
  Condition drr_space_;
  // Worker coordination: the pump notifies work_ready_ on every admission,
  // workers notify work_space_ on every claim, and drr_pump_done_ releases
  // idle workers once every feeder has drained.
  Condition work_ready_;
  Condition work_space_;
  uint64_t drr_epoch_ = 0;
  int live_feeders_ = 0;
  bool drr_pump_running_ = false;
  bool drr_pump_done_ = false;
  static constexpr size_t kDrrFeederCredit = 16;
  // Per-plane admitted-but-unserviced bound: deep enough to keep a worker
  // busy, shallow enough that DRR order still decides service order.
  static constexpr size_t kWorkerBacklog = 4;
  // Process counters, resolved once at construction instead of a registry
  // map lookup per message on the hot paths (FsProxy does the same).
  Counter* const c_rpcs_;
  Counter* const c_shard_handoffs_;
  Counter* const c_bad_policy_picks_;
  Counter* const c_connections_forwarded_;
  Counter* const c_inbound_messages_;
  Counter* const c_inbound_bytes_;
  Counter* const c_outbound_messages_;
  Counter* const c_outbound_bytes_;
  Counter* const c_events_dropped_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_TCP_PROXY_H_
