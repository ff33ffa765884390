// Per-connection tracking table for the TCP proxy ("the NIC should be part
// of the OS": connection-level visibility at the policy layer).
//
// The proxy feeds every connection lifecycle event into this table:
//
//   OnConnect   a forwarded connection was bound to a proxy shard and a
//               data plane;
//   OnInbound   one client message was forwarded to the data plane
//               (backlog grows; an idle connection starts its RTT clock);
//   OnOutbound  one data-plane reply reached the proxy for this connection
//               (backlog shrinks; RTT = now - clock);
//   OnDrop      a message was discarded (ring full / unknown socket);
//   OnClose     the connection ended (entry is retained, marked closed).
//
// The table is pure bookkeeping: it never awaits, so binding it changes no
// simulated timing — runs are byte-identical with tracking on or off (it is
// always on; it costs a table update per message).
//
// When a TelemetryHub is bound, each proxy shard additionally gets a
// depth-mode UseSeries ("net.conn" / "net.conn[k]") aggregating its
// connections' backlog: depth = messages forwarded but not yet answered,
// wait = the backend RTT of each completed reply, errors = drops. The
// bottleneck analyzer consumes these via net.proxy[k] -> net.conn[k] edges,
// so a hot connection family is named the way a hot shard is.
//
// WriteTopJson emits the top-K connections by total bytes (integer-only,
// deterministic order: bytes desc, then conn id asc) for the bench wrapper
// JSON; tools/solros_top renders it as a table.
#ifndef SOLROS_SRC_NET_CONNTRACK_H_
#define SOLROS_SRC_NET_CONNTRACK_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "src/base/id_table.h"
#include "src/base/metrics.h"
#include "src/sim/simulator.h"

namespace solros {

struct ConnEntry {
  uint64_t conn_id = 0;
  uint32_t shard = 0;
  uint32_t dataplane = 0;
  uint16_t port = 0;
  bool open = true;
  SimTime opened_at = 0;
  SimTime closed_at = 0;
  uint64_t bytes_in = 0;   // client -> data plane payload bytes
  uint64_t bytes_out = 0;  // data plane -> client payload bytes
  uint64_t msgs_in = 0;
  uint64_t msgs_out = 0;
  uint64_t drops = 0;
  // Messages forwarded to the data plane and not yet answered.
  uint64_t backlog = 0;
  // Backend RTT: forward-to-reply turnaround through the data plane.
  SimTime pending_since = 0;  // valid while backlog > 0
  Nanos rtt_last = 0;
  Nanos rtt_sum = 0;
  uint64_t rtt_count = 0;

  Nanos Age(SimTime now) const {
    return (open ? now : closed_at) - opened_at;
  }
};

class ConnTracker {
 public:
  ConnTracker(Simulator* sim, int shard_count);

  // Registers the per-shard backlog series with `hub` (lazily, on each
  // shard's first event, so unused shards add nothing to snapshots).
  void BindTelemetry(TelemetryHub* hub);

  void OnConnect(uint64_t conn_id, uint32_t shard, uint32_t dataplane,
                 uint16_t port);
  void OnInbound(uint64_t conn_id, uint64_t bytes);
  void OnOutbound(uint64_t conn_id, uint64_t bytes);
  void OnDrop(uint64_t conn_id);
  void OnClose(uint64_t conn_id);

  const ConnEntry* Find(uint64_t conn_id) const;
  size_t size() const { return conns_.size(); }
  uint64_t closed_count() const { return closed_; }

  // {"conns":[{...top-K...}],"total":N,"closed":M} — integer fields only.
  void WriteTopJson(std::ostream& os, size_t top_k) const;

 private:
  UseSeries* ShardSeries(uint32_t shard);

  Simulator* sim_;
  int shard_count_;
  TelemetryHub* hub_ = nullptr;
  std::vector<UseSeries*> series_;  // per shard, null until first event
  IdTable<uint64_t, ConnEntry> conns_;  // by conn id
  uint64_t closed_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_CONNTRACK_H_
