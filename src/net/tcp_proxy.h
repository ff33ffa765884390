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

struct TcpProxyStats {
  uint64_t rpcs = 0;
  uint64_t connections_forwarded = 0;
  uint64_t inbound_messages = 0;
  uint64_t outbound_messages = 0;
  uint64_t inbound_bytes = 0;
  uint64_t outbound_bytes = 0;
  // Always zero: every connection stays on its hash shard. Kept only for
  // the benchmark's net.proxy.shard_handoffs row.
  uint64_t shard_handoffs = 0;
};

class TcpProxy : public ServerPort {
 public:
  // `shard_cores` (optional) shards the proxy's event-loop work: each
  // connection is pinned to one core by connection hash and all of its TCP
  // processing charges go to that core, reported under "net.proxy[k]".
  // Empty => the historical single loop on `host_cpu` reported as
  // "net.proxy". The listener table and forwarding policy stay
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

 private:
  struct DataPlane {
    uint32_t id = 0;
    SimRing* inbound = nullptr;
    SimRing* outbound = nullptr;
    std::unique_ptr<RpcServer<NetRequest, NetResponse>> rpc;
    // Send side of the inbound ring (DESIGN.md §5.5); one ring push per
    // event when the plug window is zero.
    std::unique_ptr<NetPlug> plug;
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
  // One FIFO pump per data plane drains its outbound ring in order.
  static Task<void> OutboundPump(TcpProxy* self, DataPlane* dataplane);
  // Client-wire delivery of one message, spawned off the pump so the NIC
  // hop overlaps the next event's shard compute. Per-connection order
  // holds: one pump per plane spawns deliveries in ring order, and the
  // downlink wire is FIFO with a fixed latency.
  static Task<void> HandOffToNic(TcpProxy* self, uint64_t conn_id,
                                 std::vector<uint8_t> payload,
                                 TraceContext ctx);
  // Services one outbound event: shard transmit compute, then the NIC
  // hand-off. `frame` aliases the record the pump holds.
  Task<void> ProcessOutboundEvent(NetFrameView frame,
                                  std::optional<SimRing::DequeueStamp> stamp);
  Task<Status> SendEvent(uint32_t dataplane_id, const NetEvent& event,
                         std::span<const uint8_t> payload);

  Simulator* sim_;
  HwParams params_;
  Processor* host_cpu_;
  EthernetFabric* ethernet_;
  const Nanos plug_window_;
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
  // Process counters, resolved once at construction instead of a registry
  // map lookup per message on the hot paths (FsProxy does the same).
  Counter* const c_rpcs_;
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
