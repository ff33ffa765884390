#include "src/net/tcp_proxy.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/net/payload_copy.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// System-level failures worth a flight-recorder dump when they escape the
// proxy; expected outcomes of normal operation (bad handles, unsupported
// ops) are not.
bool IsSystemError(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIoError:
    case ErrorCode::kTimedOut:
    case ErrorCode::kInternal:
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kConnectionReset:
      return true;
    default:
      return false;
  }
}

}  // namespace

TcpProxy::TcpProxy(Simulator* sim, const HwParams& params,
                   Processor* host_cpu, EthernetFabric* ethernet,
                   std::unique_ptr<ForwardingPolicy> policy,
                   std::vector<Processor*> shard_cores,
                   const NetPathOptions& net_options)
    : sim_(sim),
      params_(params),
      host_cpu_(host_cpu),
      ethernet_(ethernet),
      options_(net_options),
      policy_(std::move(policy)),
      drr_ready_(sim),
      drr_space_(sim),
      work_ready_(sim),
      work_space_(sim),
      c_rpcs_(MetricRegistry::Default().GetCounter("net.proxy.rpcs")),
      c_shard_handoffs_(
          MetricRegistry::Default().GetCounter("net.proxy.shard_handoffs")),
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
  if (shard_cores.empty()) {
    shard_cores.push_back(host_cpu);
  }
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

uint32_t TcpProxy::PickShard(uint64_t conn_id) {
  const int count = static_cast<int>(shards_.size());
  if (count <= 1) {
    return 0;
  }
  const int primary = ShardOfConnection(conn_id, count);
  bool handoff = false;
  const int pick = PickShardForDepths(
      primary, count, [this](int k) { return ShardDepth(k); }, &handoff);
  if (handoff) {
    ++stats_.shard_handoffs;
    c_shard_handoffs_->Increment();
  }
  return static_cast<uint32_t>(pick);
}

void TcpProxy::AttachDataPlane(uint32_t dataplane_id, SimRing* rpc_request,
                               SimRing* rpc_response, SimRing* inbound,
                               SimRing* outbound) {
  DataPlane& dataplane = dataplanes_[dataplane_id];
  dataplane.id = dataplane_id;
  dataplane.inbound = inbound;
  dataplane.outbound = outbound;
  dataplane.plug = std::make_unique<NetPlug>(sim_, inbound, options_,
                                             "net.proxy");
  dataplane.rpc = std::make_unique<RpcServer<NetRequest, NetResponse>>(
      sim_, rpc_request, rpc_response,
      [this, dataplane_id](NetRequest request) {
        return HandleRpc(dataplane_id, std::move(request));
      });
  dataplane.rpc->Start();
  if (options_.drr_dispatch) {
    Spawn(*sim_, OutboundFeeder(this, &dataplane));
    Spawn(*sim_, DrrPlaneWorker(this, &dataplane));
    if (!drr_pump_running_) {
      drr_pump_running_ = true;
      Spawn(*sim_, DrrOutboundPump(this));
    }
  } else {
    Spawn(*sim_, OutboundPump(this, &dataplane));
  }
}

Task<Status> TcpProxy::SendEvent(uint32_t dataplane_id, const NetEvent& event,
                                 std::span<const uint8_t> payload) {
  auto it = dataplanes_.find(dataplane_id);
  if (it == dataplanes_.end()) {
    co_return NotFoundError("no such data plane");
  }
  // The plug stages/batches when coalescing or vectored push is on; with
  // both off it is one unmodified ring push per event, as before.
  if (event.kind == NetEventKind::kData) {
    co_return co_await it->second.plug->SendData(event, payload);
  }
  co_return co_await it->second.plug->SendControl(event);
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
      ProxySocket socket;
      socket.handle = handle;
      socket.dataplane = dataplane_id;
      socket.shard = shard_id;
      sockets_.emplace(handle, socket);
      response.value = handle;
      break;
    }
    case NetOp::kBind:
      // Port assignment is recorded at listen time in this model.
      break;
    case NetOp::kListen: {
      // Shared listening socket: several data planes may listen on the
      // same port (§4.4.3).
      PortListeners& group = listeners_[request.port];
      if (group.members.empty()) {
        ethernet_->RegisterPort(request.port, this);
      }
      group.members.emplace_back(dataplane_id, request.sock);
      BalanceTarget target;
      target.dataplane = dataplane_id;
      group.targets.push_back(target);
      break;
    }
    case NetOp::kClose: {
      auto it = sockets_.find(request.sock);
      if (it == sockets_.end()) {
        response.error = ErrorCode::kInvalidArgument;
        break;
      }
      if (it->second.conn_id != 0) {
        conntrack_->OnClose(it->second.conn_id);
        if (it->second.open) {
          ethernet_->CloseFromServer(it->second.conn_id);
          // Balance bookkeeping.
          for (auto& [port, group] : listeners_) {
            for (BalanceTarget& t : group.targets) {
              if (t.dataplane == it->second.dataplane && t.active_conns > 0) {
                --t.active_conns;
                break;
              }
            }
          }
        }
        // Always retire the conn mapping — also after a client-initiated
        // close (open == false), where leaving it behind would point later
        // fabric events at a socket that no longer exists.
        conn_to_socket_.erase(it->second.conn_id);
      }
      sockets_.erase(it);
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
    if (Tracer* tracer = sim_->tracer();
        tracer != nullptr && request.trace_id != 0) {
      // Under tail-based sampling, errored traces are always retained.
      tracer->FlagTrace(request.trace_id, Tracer::TraceFlag::kError);
    }
    MaybeDumpFlightRecorder(
        sim_, "net.proxy error: " + std::string(ErrorCodeName(response.error)));
  }
  co_return response;
}

Task<Status> TcpProxy::OnConnect(uint64_t conn_id, uint16_t port,
                                 uint32_t client_addr) {
  auto it = listeners_.find(port);
  if (it == listeners_.end() || it->second.members.empty()) {
    co_return Status(ErrorCode::kConnectionReset, "no listeners");
  }
  // The accept queue is shared: any shard may drain it, and the hash (or
  // load handoff) decides which loop owns the connection from here on.
  const uint32_t shard_id = PickShard(conn_id);
  Shard& shard = shards_[shard_id];
  // Host-side SYN handling on the owning shard's core.
  co_await shard.core->Compute(params_.tcp_segment_cpu);

  PortListeners& group = it->second;
  // Refresh the live per-target depth signal: the backlog of events the
  // data plane has not drained from its inbound ring (the same sends that
  // feed the ring's USE depth gauge). Load-aware policies read it.
  for (BalanceTarget& target : group.targets) {
    auto dp = dataplanes_.find(target.dataplane);
    if (dp != dataplanes_.end() && dp->second.inbound != nullptr) {
      if (options_.drr_dispatch) {
        // Post-coalescing byte backlog: event counts lie once events carry
        // wildly different byte loads (a 32-segment event is one message by
        // count), so the live signal is undrained ring bytes plus whatever
        // the plug still holds staged for this plane.
        target.queue_depth = dp->second.inbound->bytes_sent() -
                             dp->second.inbound->bytes_received() +
                             dp->second.plug->backlog_bytes();
      } else {
        target.queue_depth = dp->second.inbound->messages_sent() -
                             dp->second.inbound->messages_received();
      }
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
  ProxySocket socket;
  socket.handle = handle;
  socket.conn_id = conn_id;
  socket.dataplane = dataplane_id;
  socket.shard = shard_id;
  sockets_.emplace(handle, socket);
  conn_to_socket_[conn_id] = handle;
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
  auto it = conn_to_socket_.find(conn_id);
  if (it == conn_to_socket_.end()) {
    co_return;
  }
  auto sock_it = sockets_.find(it->second);
  if (sock_it == sockets_.end()) {
    // Data raced with the socket's close; drop it like a real stack would.
    c_events_dropped_->Increment();
    conntrack_->OnDrop(conn_id);
    conn_to_socket_.erase(it);
    co_return;
  }
  const ProxySocket socket = sock_it->second;  // may be erased mid-await
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
      // Downstream spans (ring wait, stub dispatch) hang off this span.
      TraceContext child = span.context();
      event.trace_id = child.trace_id;
      event.parent_span = child.parent_span;
    }
    if (options_.adaptive_copy) {
      // Payload handoff into the staging/ring path, charged through the
      // adaptive memcpy/DMA policy and attributed to copy_dma. Inside the
      // inbound service span so proxy = service - copy never clamps.
      co_await ChargeAdaptivePayloadCopy(sim_, params_, data.size(),
                                         /*initiator_is_host=*/true,
                                         span.context());
    }
    status = co_await SendEvent(socket.dataplane, event, data);
  }
  // The delivery buffer's payload now lives in the plug stage or the ring
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
  auto it = conn_to_socket_.find(conn_id);
  if (it == conn_to_socket_.end()) {
    co_return;
  }
  auto sock_it = sockets_.find(it->second);
  if (sock_it == sockets_.end()) {
    conn_to_socket_.erase(it);
    co_return;
  }
  ProxySocket& socket = sock_it->second;
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
  while (true) {
    auto record = co_await dataplane->outbound->Receive();
    if (!record.ok()) {
      break;  // ring closed
    }
    co_await self->ProcessOutboundRecord(
        dataplane, std::move(*record),
        dataplane->outbound->last_dequeue_stamp());
  }
}

Task<void> TcpProxy::OutboundFeeder(TcpProxy* self, DataPlane* dataplane) {
  ++self->live_feeders_;
  while (true) {
    auto record = co_await dataplane->outbound->Receive();
    if (!record.ok()) {
      break;  // ring closed
    }
    dataplane->drr_queue.emplace_back(
        std::move(*record), dataplane->outbound->last_dequeue_stamp());
    ++self->drr_epoch_;
    self->drr_ready_.NotifyAll();
    // Bounded claim-ahead: keep ring backpressure meaningful while giving
    // the pump enough lookahead to round-robin across planes.
    while (dataplane->drr_queue.size() >= kDrrFeederCredit) {
      co_await self->drr_space_.Wait();
    }
  }
  --self->live_feeders_;
  ++self->drr_epoch_;
  self->drr_ready_.NotifyAll();
}

Task<void> TcpProxy::DrrOutboundPump(TcpProxy* self) {
  while (true) {
    bool progressed = false;
    bool blocked_on_worker = false;
    for (auto& [id, dataplane] : self->dataplanes_) {
      if (dataplane.drr_queue.empty()) {
        dataplane.drr_deficit = 0;  // classic DRR: idle queues hold no credit
        continue;
      }
      // Credit is capped so a plane stalled behind a full worker queue (or
      // an oversized head record) cannot bank unbounded deficit and burst
      // past the others when it unblocks; the cap still admits any record
      // the plug can emit.
      const uint64_t cap =
          self->options_.drr_quantum +
          std::max<uint64_t>(self->options_.max_push_bytes,
                             dataplane.drr_queue.front().record.size());
      dataplane.drr_deficit =
          std::min(dataplane.drr_deficit + self->options_.drr_quantum, cap);
      while (!dataplane.drr_queue.empty() &&
             dataplane.drr_queue.front().record.size() <=
                 dataplane.drr_deficit) {
        if (dataplane.work.size() >= kWorkerBacklog) {
          blocked_on_worker = true;
          break;
        }
        OutboundItem item = std::move(dataplane.drr_queue.front());
        dataplane.drr_queue.pop_front();
        dataplane.drr_deficit -= item.record.size();
        self->drr_space_.NotifyAll();
        dataplane.work.push_back(std::move(item));
        self->work_ready_.NotifyAll();
        progressed = true;
      }
      // A record larger than the accumulated deficit waits for the next
      // round's quantum (its plane keeps the credit).
    }
    bool any_queued = false;
    for (auto& [id, dataplane] : self->dataplanes_) {
      any_queued |= !dataplane.drr_queue.empty();
    }
    if (any_queued) {
      if (progressed) {
        continue;
      }
      if (blocked_on_worker) {
        co_await self->work_space_.Wait();
        continue;
      }
      // Only oversized heads remain: iterate so they accumulate credit
      // (bounded — the cap above admits them within a few rounds).
      continue;
    }
    if (self->live_feeders_ == 0) {
      break;  // all rings closed and drained
    }
    const uint64_t epoch = self->drr_epoch_;
    while (self->drr_epoch_ == epoch) {
      co_await self->drr_ready_.Wait();
    }
  }
  self->drr_pump_done_ = true;
  self->work_ready_.NotifyAll();
}

Task<void> TcpProxy::DrrPlaneWorker(TcpProxy* self, DataPlane* dataplane) {
  while (true) {
    while (dataplane->work.empty() && !self->drr_pump_done_) {
      co_await self->work_ready_.Wait();
    }
    if (dataplane->work.empty()) {
      break;  // pump done and nothing left admitted for this plane
    }
    OutboundItem item = std::move(dataplane->work.front());
    dataplane->work.pop_front();
    self->work_space_.NotifyAll();
    co_await self->ProcessOutboundRecord(dataplane, std::move(item.record),
                                         item.stamp);
  }
}

Task<void> TcpProxy::DeliverTrain(
    TcpProxy* self, uint64_t conn_id,
    std::vector<std::pair<TraceContext, std::vector<uint8_t>>> messages) {
  for (auto& [ctx, payload] : messages) {
    Status status = co_await self->ethernet_->DeliverToClient(
        conn_id, std::move(payload), ctx);
    if (!status.ok() && status.code() != ErrorCode::kNotConnected) {
      LOG(WARNING) << "outbound deliver failed: " << status.ToString();
    }
  }
}

Task<void> TcpProxy::ProcessOutboundRecord(
    DataPlane* dataplane, std::vector<uint8_t> record,
    std::optional<SimRing::DequeueStamp> stamp) {
  NetEvent header = DecodePod<NetEvent>(record);
  std::span<const uint8_t> body(record.data() + sizeof(NetEvent),
                                record.size() - sizeof(NetEvent));
  // One event for legacy/coalesced records; several for a kBatch frame.
  // `record` stays alive in this frame, so the views remain valid.
  for (NetFrameView& frame : SplitBatch(header, body)) {
    co_await ProcessOutboundEvent(dataplane, frame, stamp);
  }
}

Task<void> TcpProxy::ProcessOutboundEvent(
    DataPlane* dataplane, NetFrameView frame,
    std::optional<SimRing::DequeueStamp> stamp) {
  const NetEvent& header = frame.header;
  // One message for the legacy layout; the staged messages of a coalesced
  // event otherwise. Per-message contexts ride the segment descriptors.
  std::vector<NetSegmentView> messages = SplitSegments(header, frame.body);
  uint64_t message_bytes = 0;
  for (const NetSegmentView& m : messages) {
    message_bytes += m.payload.size();
  }
  // Retroactive queue-wait span(s): how long the stub's send sat ready in
  // the outbound ring before the pump claimed it. Every traced message in
  // the record shared that wait.
  if (Tracer* tracer = sim_->tracer();
      tracer != nullptr && stamp.has_value()) {
    for (const NetSegmentView& m : messages) {
      if (m.trace_id != 0) {
        TraceContext seg_ctx;
        seg_ctx.trace_id = m.trace_id;
        seg_ctx.parent_span = m.parent_span;
        tracer->RecordSpan("ring", "net.queue.event", stamp->ready_at,
                           stamp->dequeue_at, seg_ctx);
      }
    }
  }
  auto it = sockets_.find(header.sock);
  if (it == sockets_.end() || !it->second.open) {
    co_return;  // stale send after close
  }
  const uint64_t conn_id = it->second.conn_id;  // `it` dies at an await
  // The reply reached the proxy: backend-RTT endpoint for conntrack.
  conntrack_->OnOutbound(conn_id, message_bytes);
  Shard& shard = shards_[it->second.shard];
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), +1);
  }
  // Service-span context: the first traced message (the only one for
  // legacy records; later segments' service share lands in their traces'
  // residual stub bucket — attribution stays exact either way).
  TraceContext ctx;
  for (const NetSegmentView& m : messages) {
    if (m.trace_id != 0) {
      ctx.trace_id = m.trace_id;
      ctx.parent_span = m.parent_span;
      break;
    }
  }
  {
    // Transmit-side service span. Scoped to the shard compute only — it
    // must close before DeliverToClient so it never overlaps the
    // downlink net.wire.transit span of the same trace.
    ScopedSpan span(sim_, "netproxy", "net.proxy.outbound", ctx);
    // Host TCP transmit processing on the socket's shard, then the wire.
    // Coalesced events pay the per-message cost once for the whole train
    // plus per-segment work (the GSO win).
    co_await shard.core->Compute(
        params_.tcp_message_cpu +
        TcpSegments(message_bytes) * params_.tcp_segment_cpu);
    if (options_.adaptive_copy) {
      co_await ChargeAdaptivePayloadCopy(sim_, params_, message_bytes,
                                         /*initiator_is_host=*/true,
                                         span.context());
    }
    stats_.outbound_messages += messages.size();
    stats_.outbound_bytes += message_bytes;
    c_outbound_messages_->Increment(messages.size());
    c_outbound_bytes_->Increment(message_bytes);
  }
  // Deliver each original message separately: client framing is preserved
  // exactly as if the messages had never shared a ring record.
  if (options_.drr_dispatch) {
    // The NIC hop is the fabric's job, not the shard's: hand the train off
    // so this worker's next record overlaps the wire latency. Same-conn
    // order holds (trains spawn in worker order; the downlink is FIFO with
    // fixed latency).
    std::vector<std::pair<TraceContext, std::vector<uint8_t>>> train;
    train.reserve(messages.size());
    for (const NetSegmentView& m : messages) {
      TraceContext m_ctx;
      m_ctx.trace_id = m.trace_id;
      m_ctx.parent_span = m.parent_span;
      train.emplace_back(m_ctx, std::vector<uint8_t>(m.payload.begin(),
                                                     m.payload.end()));
    }
    Spawn(*sim_, DeliverTrain(this, conn_id, std::move(train)));
  } else {
    for (const NetSegmentView& m : messages) {
      TraceContext m_ctx;
      m_ctx.trace_id = m.trace_id;
      m_ctx.parent_span = m.parent_span;
      Status status = co_await ethernet_->DeliverToClient(
          conn_id, std::vector<uint8_t>(m.payload.begin(), m.payload.end()),
          m_ctx);
      if (!status.ok() && status.code() != ErrorCode::kNotConnected) {
        LOG(WARNING) << "outbound deliver failed: " << status.ToString();
      }
    }
  }
  if (shard.use != nullptr) {
    shard.use->QueueDelta(sim_->now(), -1);
    shard.use->CompleteOp(sim_->now(), 0);
  }
}

}  // namespace solros
