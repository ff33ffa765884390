#include "src/net/tcp_proxy.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/sim/trace.h"

namespace solros {

TcpProxy::TcpProxy(Simulator* sim, const HwParams& params,
                   EthernetFabric* ethernet,
                   std::unique_ptr<ForwardingPolicy> policy,
                   std::vector<Processor*> shard_cores,
                   const NetPathOptions& net_options)
    : sim_(sim),
      params_(params),
      ethernet_(ethernet),
      plug_window_(net_options.net_plug_window_ns),
      policy_(std::move(policy)),
      c_rpcs_(MetricRegistry::Default().GetCounter("net.proxy.rpcs")),
      c_bad_policy_picks_(
          MetricRegistry::Default().GetCounter("net.proxy.bad_policy_picks")),
      c_connections_forwarded_(MetricRegistry::Default().GetCounter(
          "net.proxy.connections_forwarded")),
      c_inbound_messages_(
          MetricRegistry::Default().GetCounter("net.proxy.inbound_messages")),
      c_inbound_bytes_(
          MetricRegistry::Default().GetCounter("net.proxy.inbound_bytes")),
      c_outbound_messages_(
          MetricRegistry::Default().GetCounter("net.proxy.outbound_messages")),
      c_outbound_bytes_(
          MetricRegistry::Default().GetCounter("net.proxy.outbound_bytes")),
      c_events_dropped_(
          MetricRegistry::Default().GetCounter("net.proxy.events_dropped")) {
  CHECK(policy_ != nullptr);
  CHECK(!shard_cores.empty());
  const int count = static_cast<int>(shard_cores.size());
  shards_.reserve(shard_cores.size());
  for (int k = 0; k < count; ++k) {
    Shard shard;
    shard.core = shard_cores[static_cast<size_t>(k)];
    if (sim->telemetry() != nullptr) {
      shard.use =
          sim->telemetry()->GetSeries(ShardLabel("net.proxy", k, count));
    }
    shards_.push_back(shard);
  }
  conntrack_ = std::make_unique<ConnTracker>(sim, count);
  if (sim->telemetry() != nullptr) {
    conntrack_->BindTelemetry(sim->telemetry());
  }
}

void TcpProxy::AttachDataPlane(uint32_t dataplane_id, SimRing* rpc_request,
                               SimRing* rpc_response, SimRing* inbound,
                               SimRing* outbound) {
  DataPlane& dataplane = dataplanes_[dataplane_id];
  dataplane.id = dataplane_id;
  dataplane.inbound = inbound;
  dataplane.outbound = outbound;
  dataplane.plug =
      std::make_unique<NetPlug>(sim_, inbound, plug_window_, "net.proxy");
  dataplane.rpc = std::make_unique<RpcServer<NetRequest, NetResponse>>(
      sim_, rpc_request, rpc_response,
      [this, dataplane_id](NetRequest request) {
        return HandleRpc(dataplane_id, std::move(request));
      });
  dataplane.rpc->Start();
  Spawn(*sim_, OutboundPump(this, &dataplane));
}

Task<Status> TcpProxy::SendEvent(uint32_t dataplane_id, const NetEvent& event,
                                 std::span<const uint8_t> payload) {
  auto it = dataplanes_.find(dataplane_id);
  if (it == dataplanes_.end()) {
    co_return NotFoundError("no such data plane");
  }
  co_return co_await it->second.plug->Send(event, payload);
}

Task<NetResponse> TcpProxy::HandleRpc(uint32_t dataplane_id,
                                      NetRequest request) {
  ++stats_.rpcs;
  c_rpcs_->Increment();
  // Socket-call RPCs shard by data plane: every call a given stub makes
  // lands on the same event loop, so its socket state has core affinity.
  const uint32_t shard_id =
      static_cast<uint32_t>(dataplane_id % shards_.size());
  Shard& shard = shards_[shard_id];
  SimTime rpc_start = sim_->now();
  if (shard.use != nullptr) {
    shard.use->QueueDelta(rpc_start, +1);
  }
  // Service span, linked back to the stub's root span via the wire context.
  ScopedSpan span(sim_, "netproxy", "net.proxy.rpc",
                  TraceContext{request.trace_id, request.parent_span});
  co_await shard.core->Compute(params_.net_proxy_cpu);
  NetResponse response;
  switch (request.op) {
    case NetOp::kSocket: {
      int64_t handle = next_handle_++;
      ProxySocket& socket = sockets_.Emplace(handle);
      socket.handle = handle;
      socket.dataplane = dataplane_id;
      socket.shard = shard_id;
      response.value = handle;
      break;
    }
    case NetOp::kBind:
      // Port assignment is recorded at listen time in this model.
      break;
    case NetOp::kListen: {
      ProxySocket* socket = sockets_.Find(request.sock);
      if (socket == nullptr || socket->dataplane != dataplane_id ||
          socket->conn_id != 0) {
        response.error = ErrorCode::kInvalidArgument;
      } else if (!socket->listening) {
        StartListening(*socket, request.port);
      } else if (socket->port != request.port) {
        response.error = ErrorCode::kInvalidArgument;
      }  // else a replayed kListen: already listening there
      break;
    }
    case NetOp::kClose: {
      ProxySocket* socket = sockets_.Find(request.sock);
      if (socket == nullptr) {
        response.error = ErrorCode::kInvalidArgument;
        break;
      }
      if (socket->listening) {
        StopListening(*socket);
      }
      if (socket->conn_id != 0) {
        conntrack_->OnClose(socket->conn_id);
        if (socket->open) {
          ethernet_->CloseFromServer(socket->conn_id);
        }
        // Balance bookkeeping: the connection leaves the target it was
        // forwarded to, whichever side closed first.
        if (BalanceTarget* target = TargetOf(socket->port, socket->listener)) {
          --target->active_conns;
        }
        // Always retire the conn mapping — also after a client-initiated
        // close (open == false), where leaving it behind would point later
        // fabric events at a socket that no longer exists.
        conn_to_socket_.Erase(socket->conn_id);
      }
      sockets_.Erase(request.sock);
      break;
    }
    case NetOp::kShutdown:
    case NetOp::kSetsockopt:
      break;  // modeled as no-ops
    default:
      response.error = ErrorCode::kNotSupported;
      break;
  }
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), -1);
    shard.use->CompleteOp(sim_->now(), 0);
  }
  if (IsSystemError(response.error)) {
    if (shard.use != nullptr) {
      shard.use->AddError(sim_->now());
    }
    // Under tail-based sampling, errored traces are always retained.
    FlagTraceError(sim_, request.trace_id);
  }
  co_return response;
}

void TcpProxy::StartListening(ProxySocket& socket, uint16_t port) {
  // Shared listening socket: several data planes may listen on the same
  // port (§4.4.3).
  PortListeners& group = listeners_[port];
  if (group.members.empty()) {
    ethernet_->RegisterPort(port, this);
  }
  group.members.emplace_back(socket.dataplane, socket.handle);
  BalanceTarget target;
  target.dataplane = socket.dataplane;
  group.targets.push_back(target);
  socket.port = port;
  socket.listening = true;
}

void TcpProxy::StopListening(const ProxySocket& socket) {
  auto it = listeners_.find(socket.port);
  CHECK(it != listeners_.end());
  PortListeners& group = it->second;
  for (size_t i = 0; i < group.members.size(); ++i) {
    if (group.members[i].second == socket.handle) {
      group.members.erase(group.members.begin() + static_cast<ptrdiff_t>(i));
      group.targets.erase(group.targets.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (group.members.empty()) {
    ethernet_->UnregisterPort(socket.port);
    listeners_.erase(it);
  }
}

BalanceTarget* TcpProxy::TargetOf(uint16_t port, int64_t listener) {
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    return nullptr;
  }
  PortListeners& group = it->second;
  for (size_t i = 0; i < group.members.size(); ++i) {
    if (group.members[i].second == listener) {
      return &group.targets[i];
    }
  }
  return nullptr;
}

Task<Status> TcpProxy::OnConnect(uint64_t conn_id, uint16_t port,
                                 uint32_t client_addr) {
  if (!listeners_.contains(port)) {
    co_return Status(ErrorCode::kConnectionReset, "no listeners");
  }
  // The accept queue is shared: any shard may drain it, and the connection
  // hash decides which loop owns the connection from here on.
  const uint32_t shard_id = static_cast<uint32_t>(
      ShardOfConnection(conn_id, shard_count()));
  Shard& shard = shards_[shard_id];
  // Host-side SYN handling on the owning shard's core.
  co_await shard.core->Compute(params_.tcp_segment_cpu);

  // Looked up again: the last listener may have closed meanwhile.
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    co_return Status(ErrorCode::kConnectionReset, "no listeners");
  }
  PortListeners& group = it->second;
  // Refresh the live per-target depth signal: the bytes the data plane has
  // not drained from its inbound ring plus whatever its plug still holds.
  // Bytes, not events: a 32 KiB event and a 64 B event are not the same
  // load. Load-aware policies read it.
  for (BalanceTarget& target : group.targets) {
    auto dp = dataplanes_.find(target.dataplane);
    if (dp != dataplanes_.end() && dp->second.inbound != nullptr) {
      target.queue_depth = dp->second.inbound->bytes_sent() -
                           dp->second.inbound->bytes_received() +
                           dp->second.plug->backlog_bytes();
    }
  }
  size_t pick = policy_->Pick(client_addr, port, group.targets);
  if (pick >= group.members.size()) {
    // A broken policy pick refuses the connection instead of taking the
    // whole proxy down with it.
    c_bad_policy_picks_->Increment();
    co_return InternalError("forwarding policy picked a bad member");
  }
  auto [dataplane_id, stub_listener] = group.members[pick];
  ++group.targets[pick].active_conns;
  ++group.targets[pick].total_assigned;
  ++stats_.connections_forwarded;
  c_connections_forwarded_->Increment();

  int64_t handle = next_handle_++;
  ProxySocket& socket = sockets_.Emplace(handle);
  socket.handle = handle;
  socket.conn_id = conn_id;
  socket.dataplane = dataplane_id;
  socket.shard = shard_id;
  socket.port = port;
  socket.listener = stub_listener;
  conn_to_socket_.Emplace(conn_id, handle);
  conntrack_->OnConnect(conn_id, shard_id, dataplane_id, port);

  NetEvent event;
  event.kind = NetEventKind::kAccepted;
  event.sock = stub_listener;  // which stub listener this belongs to
  event.new_sock = handle;
  event.peer_addr = client_addr;
  event.peer_port = port;
  co_return co_await SendEvent(dataplane_id, event, {});
}

Task<void> TcpProxy::OnClientData(uint64_t conn_id, std::vector<uint8_t> data,
                                  TraceContext ctx) {
  const int64_t* handle = conn_to_socket_.Find(conn_id);
  if (handle == nullptr) {
    co_return;
  }
  const ProxySocket* found = sockets_.Find(*handle);
  if (found == nullptr) {
    // Data raced with the socket's close; drop it like a real stack would.
    c_events_dropped_->Increment();
    conntrack_->OnDrop(conn_id);
    conn_to_socket_.Erase(conn_id);
    co_return;
  }
  const ProxySocket socket = *found;  // may be erased mid-await
  Shard& shard = shards_[socket.shard];
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), +1);
  }
  const uint64_t bytes = data.size();
  Status status;
  {
    // Receive-side service span, a child of the client's op. It closes at
    // the ring SetReady instant (nothing awaits between Send returning and
    // scope exit), so it never overlaps the ring queue-wait span the
    // dispatcher records retroactively.
    ScopedSpan span(sim_, "netproxy", "net.proxy.inbound", ctx);
    // Full TCP receive processing on the connection's shard core (the
    // Solros win: this would run 8x slower on the Phi).
    co_await shard.core->Compute(params_.tcp_message_cpu +
                                 TcpSegments(data.size()) *
                                     params_.tcp_segment_cpu);
    ++stats_.inbound_messages;
    stats_.inbound_bytes += data.size();
    c_inbound_messages_->Increment();
    c_inbound_bytes_->Increment(data.size());
    NetEvent event;
    event.kind = NetEventKind::kData;
    event.sock = socket.handle;
    event.length = static_cast<uint32_t>(data.size());
    if (ctx.traced()) {
      // Downstream spans (ring wait) hang off this span.
      TraceContext child = span.context();
      event.trace_id = child.trace_id;
      event.parent_span = child.parent_span;
    }
    status = co_await SendEvent(socket.dataplane, event, data);
  }
  // The delivery buffer's payload now lives in the plug queue or the ring
  // record; hand it back to the fabric's pool (satellite of the per-message
  // allocation fix — see EthernetFabric::AcquirePayload).
  ethernet_->ReleasePayload(std::move(data));
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), -1);
    shard.use->CompleteOp(sim_->now(), 0);
  }
  if (!status.ok()) {
    c_events_dropped_->Increment();
    conntrack_->OnDrop(conn_id);
    if (shard.use != nullptr) {
      shard.use->AddError(sim_->now());
    }
    LOG(WARNING) << "inbound event drop: " << status.ToString();
  } else {
    conntrack_->OnInbound(conn_id, bytes);
  }
}

Task<void> TcpProxy::OnClientClose(uint64_t conn_id) {
  const int64_t* handle = conn_to_socket_.Find(conn_id);
  if (handle == nullptr) {
    co_return;
  }
  ProxySocket* found = sockets_.Find(*handle);
  if (found == nullptr) {
    conn_to_socket_.Erase(conn_id);
    co_return;
  }
  ProxySocket& socket = *found;
  socket.open = false;
  conntrack_->OnClose(conn_id);
  NetEvent event;
  event.kind = NetEventKind::kPeerClosed;
  event.sock = socket.handle;
  Status status = co_await SendEvent(socket.dataplane, event, {});
  if (!status.ok()) {
    c_events_dropped_->Increment();
    LOG(WARNING) << "peer-close event drop: " << status.ToString();
  }
}

Task<void> TcpProxy::OutboundPump(TcpProxy* self, DataPlane* dataplane) {
  // Reused across records: each Receive overwrites `record`, and the
  // views in `frames` alias it until the next Receive.
  std::vector<uint8_t> record;
  std::vector<NetFrameView> frames;
  while (true) {
    Status received = co_await dataplane->outbound->Receive(&record);
    if (!received.ok()) {
      break;  // ring closed
    }
    const auto stamp = dataplane->outbound->last_dequeue_stamp();
    // One event, or a kBatch record's events in push order.
    SplitRecord(record, &frames);
    for (const NetFrameView& frame : frames) {
      co_await self->ProcessOutboundEvent(frame, stamp);
    }
  }
}

Task<void> TcpProxy::HandOffToNic(TcpProxy* self, uint64_t conn_id,
                                  std::vector<uint8_t> payload,
                                  TraceContext ctx) {
  Status status = co_await self->ethernet_->DeliverToClient(
      conn_id, std::move(payload), ctx);
  if (!status.ok() && status.code() != ErrorCode::kNotConnected) {
    LOG(WARNING) << "outbound deliver failed: " << status.ToString();
  }
}

Task<void> TcpProxy::ProcessOutboundEvent(
    NetFrameView frame, std::optional<SimRing::DequeueStamp> stamp) {
  const NetEvent& header = frame.header;
  const TraceContext ctx{header.trace_id, header.parent_span};
  const uint64_t bytes = frame.body.size();
  // Retroactive queue-wait span: how long the stub's send sat ready in the
  // outbound ring before the pump claimed it.
  if (Tracer* tracer = sim_->tracer();
      tracer != nullptr && ctx.traced() && stamp.has_value()) {
    tracer->RecordSpan("ring", "net.queue.event", stamp->ready_at,
                       stamp->dequeue_at, ctx);
  }
  const ProxySocket* socket = sockets_.Find(header.sock);
  if (socket == nullptr || !socket->open) {
    co_return;  // stale send after close
  }
  const uint64_t conn_id = socket->conn_id;  // `socket` dies at an await
  // The reply reached the proxy: backend-RTT endpoint for conntrack.
  conntrack_->OnOutbound(conn_id, bytes);
  Shard& shard = shards_[socket->shard];
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), +1);
  }
  {
    // Transmit-side service span. Scoped to the shard compute only — it
    // must close before the NIC hand-off so it never overlaps the
    // downlink net.wire.transit span of the same trace.
    ScopedSpan span(sim_, "netproxy", "net.proxy.outbound", ctx);
    // Host TCP transmit processing on the socket's shard, then the wire.
    co_await shard.core->Compute(params_.tcp_message_cpu +
                                 TcpSegments(bytes) * params_.tcp_segment_cpu);
    ++stats_.outbound_messages;
    stats_.outbound_bytes += bytes;
    c_outbound_messages_->Increment();
    c_outbound_bytes_->Increment(bytes);
  }
  // The NIC hop is the fabric's job, not the shard's: hand the message off
  // so the pump's next event overlaps the wire latency.
  Spawn(*sim_, HandOffToNic(this, conn_id,
                            std::vector<uint8_t>(frame.body.begin(),
                                                 frame.body.end()),
                            ctx));
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), -1);
    shard.use->CompleteOp(sim_->now(), 0);
  }
}

}  // namespace solros
