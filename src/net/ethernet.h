// External network substrate: client machines, the 100 Gbps wire, and the
// server's NIC.
//
// The paper's network evaluation (§6) runs a client machine over 100 Gbps
// Ethernet against servers reachable through the host (Solros / host
// baselines) or bridged through to a Xeon Phi (stock Phi-Linux). This
// module models that outer loop:
//
//   ExternalClient --wire (bw + latency)--> NIC --> registered ServerPort
//
// Message-granular TCP: each message charges per-segment stack CPU at both
// endpoints and bandwidth on the wire; sequencing/retransmission are out of
// scope (DESIGN.md §7). A ServerPort is whatever terminates connections on
// the server side — the Solros TCP proxy, a host server, or the bridged
// Phi-Linux stack.
#ifndef SOLROS_SRC_NET_ETHERNET_H_
#define SOLROS_SRC_NET_ETHERNET_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/base/id_table.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {

inline constexpr uint64_t kTcpMss = 1448;

inline uint64_t TcpSegments(uint64_t bytes) {
  return bytes == 0 ? 1 : (bytes + kTcpMss - 1) / kTcpMss;
}

// Server-side connection termination. Implementations charge their own
// architecture's costs before delivering to the application.
class ServerPort {
 public:
  virtual ~ServerPort() = default;
  // A new client connection; returns a status (reject on backlog etc.).
  // `conn_id` is the fabric-global connection id.
  virtual Task<Status> OnConnect(uint64_t conn_id, uint16_t port,
                                 uint32_t client_addr) = 0;
  // Client payload arriving at the NIC for this connection. `ctx` is the
  // client's trace context for per-stage attribution (untraced when zero);
  // implementations hang their service spans off it and thread it through
  // to the reply.
  virtual Task<void> OnClientData(uint64_t conn_id, std::vector<uint8_t> data,
                                  TraceContext ctx) = 0;
  virtual Task<void> OnClientClose(uint64_t conn_id) = 0;
};

class EthernetFabric {
 public:
  EthernetFabric(Simulator* sim, const HwParams& params);

  // Registers `port_handler` as the terminator for TCP port `port`.
  void RegisterPort(uint16_t port, ServerPort* handler);
  void UnregisterPort(uint16_t port);

  // -- client side -----------------------------------------------------------
  // Establishes a connection; returns the connection id.
  Task<Result<uint64_t>> ClientConnect(uint32_t client_addr, uint16_t port,
                                       Processor* client_cpu);
  // `ctx`, when traced, wraps the uplink wire transfer in a
  // "net.wire.transit" span and rides with the data to the ServerPort.
  Task<Status> ClientSend(uint64_t conn_id, std::span<const uint8_t> data,
                          Processor* client_cpu, TraceContext ctx = {});
  // Waits for the next server->client message.
  Task<Result<std::vector<uint8_t>>> ClientRecv(uint64_t conn_id);
  Task<void> ClientClose(uint64_t conn_id, Processor* client_cpu);

  // -- server side -----------------------------------------------------------
  // Delivery back to the client (used by ServerPort implementations); the
  // caller has already charged its server-side stack costs. A traced `ctx`
  // wraps the downlink wire transfer in a "net.wire.transit" span.
  Task<Status> DeliverToClient(uint64_t conn_id, std::vector<uint8_t> data,
                               TraceContext ctx = {});
  void CloseFromServer(uint64_t conn_id);

  uint64_t connections_opened() const { return next_conn_ - 1; }

  // -- payload buffer pool ---------------------------------------------------
  // Wire payloads used to be materialized with a fresh
  // std::vector<uint8_t>(data.begin(), data.end()) per message — at storm
  // scale that is one heap allocation per message on the hottest path.
  // AcquirePayload reuses retired buffers' capacity instead; ReleasePayload
  // returns a consumed payload (ServerPort implementations call it once
  // they have copied the bytes onward). "net.wire.payload_copies" counts
  // every materialization, "net.wire.pool_hits" the ones that reused a
  // pooled buffer. No simulated time is involved either way.
  std::vector<uint8_t> AcquirePayload(std::span<const uint8_t> data);
  void ReleasePayload(std::vector<uint8_t> buffer);

 private:
  struct Conn {
    Conn(Simulator* sim, ServerPort* handler)
        : handler(handler), to_client(sim, /*capacity=*/0) {}
    ServerPort* handler;
    Channel<std::vector<uint8_t>> to_client;
    bool open = true;
  };

  Task<void> WireToServer(uint64_t bytes);
  Task<void> WireToClient(uint64_t bytes);

  Simulator* sim_;
  HwParams params_;
  BandwidthResource wire_up_;    // client -> server
  BandwidthResource wire_down_;  // server -> client
  std::map<uint16_t, ServerPort*> ports_;
  IdTable<uint64_t, Conn> conns_;  // by conn id; Conn& survives growth
  uint64_t next_conn_ = 1;
  // Retired payload buffers, capacity intact (bounded; see AcquirePayload).
  static constexpr size_t kPayloadPoolCap = 64;
  std::vector<std::vector<uint8_t>> payload_pool_;
  Counter* const c_payload_copies_;
  Counter* const c_pool_hits_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_ETHERNET_H_
