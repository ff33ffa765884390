#include "src/net/net_stub.h"

#include <utility>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {

NetStub::NetStub(Simulator* sim, const HwParams& params, Processor* phi_cpu,
                 SimRing* rpc_request, SimRing* rpc_response,
                 SimRing* inbound, SimRing* outbound,
                 const NetPathOptions& net_options)
    : sim_(sim),
      params_(params),
      phi_cpu_(phi_cpu),
      rpc_(sim, rpc_request, rpc_response),
      inbound_(inbound),
      outbound_(outbound),
      plug_(std::make_unique<NetPlug>(
          sim, outbound, net_options.net_plug_window_ns, "net.stub")),
      c_events_(MetricRegistry::Default().GetCounter("net.stub.events")),
      c_recvs_(MetricRegistry::Default().GetCounter("net.stub.recvs")),
      c_sends_(MetricRegistry::Default().GetCounter("net.stub.sends")),
      c_send_bytes_(
          MetricRegistry::Default().GetCounter("net.stub.send_bytes")) {
  rpc_.Start();
  Spawn(*sim_, EventDispatcher(this));
}

NetStub::ConnSocket* NetStub::FindSocket(int64_t handle) {
  ConnSocket* socket = sockets_.Find(handle);
  return socket == nullptr || socket->closed ? nullptr : socket;
}

NetStub::ListenSocket* NetStub::FindListener(int64_t handle) {
  ListenSocket* listener = listeners_.Find(handle);
  return listener == nullptr || listener->closed ? nullptr : listener;
}

Task<void> NetStub::EventDispatcher(NetStub* self) {
  // §4.4.2: one dispatcher dequeues from the inbound ring and feeds
  // per-socket queues; application threads copy payloads in parallel.
  // Reused across records: each Receive overwrites `record`, and the
  // views in `frames` alias it until the next Receive.
  std::vector<uint8_t> record;
  std::vector<NetFrameView> frames;
  while (true) {
    Status received = co_await self->inbound_->Receive(&record);
    if (!received.ok()) {
      break;  // ring closed
    }
    const auto stamp = self->inbound_->last_dequeue_stamp();
    // One event, or a kBatch record's events in push order.
    SplitRecord(record, &frames);
    for (const NetFrameView& frame : frames) {
      co_await self->DispatchEvent(frame, stamp);
    }
  }
}

Task<void> NetStub::DispatchEvent(
    NetFrameView frame, std::optional<SimRing::DequeueStamp> stamp) {
  const NetEvent& event = frame.header;
  ++events_;
  c_events_->Increment();
  TraceContext ctx{event.trace_id, event.parent_span};
  // Retroactive inbound-ring wait: [event ready, dequeued here] — the
  // slice of the round trip spent queued behind the single dispatcher
  // (same idiom as the RPC response ring, rpc.h).
  if (Tracer* tracer = sim_->tracer();
      tracer != nullptr && ctx.traced() && stamp.has_value()) {
    tracer->RecordSpan("ring", "net.queue.event", stamp->ready_at,
                       stamp->dequeue_at, ctx);
  }
  switch (event.kind) {
    case NetEventKind::kAccepted: {
      ListenSocket* listener = FindListener(event.sock);
      if (listener == nullptr) {
        // The listener closed while this connection was on its way: reset
        // it, as a kernel resets what a closed listener's queue held.
        Spawn(*sim_, Close(event.new_sock));
        break;
      }
      // The connected socket exists before any of its data events.
      sockets_.Emplace(event.new_sock, sim_);
      co_await listener->accept_queue.Send(event.new_sock);
      break;
    }
    case NetEventKind::kData: {
      ConnSocket* socket = FindSocket(event.sock);
      if (socket == nullptr) {
        break;  // closed here while the data was on its way
      }
      ++messages_delivered_;
      co_await socket->recv_queue.Send(
          {std::vector<uint8_t>(frame.body.begin(), frame.body.end()),
           event.trace_id, event.parent_span});
      break;
    }
    case NetEventKind::kPeerClosed: {
      if (ConnSocket* socket = FindSocket(event.sock)) {
        socket->recv_queue.Close();
      }
      break;
    }
    case NetEventKind::kBatch:
      break;  // unreachable: SplitRecord never yields a nested batch
  }
}

Task<Result<NetResponse>> NetStub::Call(NetRequest request) {
  // Root of this RPC's causal trace (see FsStub::Call): a fresh trace id
  // carried on the wire so the proxy's spans hang off this one. Untraced
  // (all-zero) when no tracer is bound.
  const TraceContext root_ctx = NewRootContext(sim_->tracer());
  ScopedSpan span(sim_, "netstub", "net.stub.call", root_ctx);
  TraceContext ctx = span.context();
  request.trace_id = ctx.trace_id;
  request.parent_span = ctx.parent_span;
  // Only a transport timeout is retried: the outcome is unknown, so the
  // reissue gives at-least-once semantics (see set_retry_options).
  Result<NetResponse> rpc = co_await Retry(
      retry_, call_timeout_, {"net.stub.retries", "netstub", "net.stub.retry"},
      root_ctx.trace_id,
      [&](Nanos timeout) { return rpc_.Call(request, timeout); },
      [](const Result<NetResponse>& result) {
        return result.code() == ErrorCode::kTimedOut;
      });
  // A failed RPC marks the whole trace for retention under tail-based
  // sampling (no-op in full-capture mode).
  if (!rpc.ok()) {
    FlagTraceError(sim_, root_ctx.trace_id);
  }
  co_return rpc;
}

Task<Result<int64_t>> NetStub::Listen(uint16_t port, int backlog) {
  co_await phi_cpu_->Compute(params_.net_stub_cpu);
  NetRequest socket_req;
  socket_req.op = NetOp::kSocket;
  SOLROS_CO_ASSIGN_OR_RETURN(NetResponse created,
                             co_await Call(socket_req));
  if (created.error != ErrorCode::kOk) {
    co_return Status(created.error);
  }
  int64_t handle = created.value;
  // Before kListen: a connection may arrive ahead of its reply.
  listeners_.Emplace(handle, sim_);

  NetRequest listen_req;
  listen_req.op = NetOp::kListen;
  listen_req.sock = handle;
  listen_req.port = port;
  listen_req.backlog = static_cast<uint16_t>(backlog);
  SOLROS_CO_ASSIGN_OR_RETURN(NetResponse listened,
                             co_await Call(listen_req));
  if (listened.error != ErrorCode::kOk) {
    listeners_.Erase(handle);
    co_return Status(listened.error);
  }
  co_return handle;
}

Task<Result<int64_t>> NetStub::Accept(int64_t listener) {
  co_await phi_cpu_->Compute(params_.net_stub_cpu);
  ListenSocket* state = FindListener(listener);
  if (state == nullptr) {
    co_return InvalidArgumentError("bad listener handle");
  }
  std::optional<int64_t> sock = co_await state->accept_queue.Receive();
  if (!sock.has_value()) {
    co_return Status(ErrorCode::kConnectionReset, "listener closed");
  }
  co_return *sock;
}

Task<Result<std::vector<uint8_t>>> NetStub::Recv(int64_t sock) {
  c_recvs_->Increment();
  TRACE_SPAN(sim_, "netstub", "net.stub.recv");
  co_await phi_cpu_->Compute(params_.net_stub_cpu);
  ConnSocket* state = FindSocket(sock);
  if (state == nullptr) {
    co_return InvalidArgumentError("bad socket handle");
  }
  std::optional<RecvItem> item = co_await state->recv_queue.Receive();
  if (!item.has_value()) {
    co_return Status(ErrorCode::kConnectionReset, "peer closed");
  }
  // Remember the request's context so the next Send on this socket (the
  // reply, in request/response protocols) joins the same trace.
  state->reply_trace_id = item->trace_id;
  state->reply_parent = item->parent_span;
  co_return std::move(item->data);
}

Task<Status> NetStub::Send(int64_t sock, std::span<const uint8_t> data) {
  c_sends_->Increment();
  c_send_bytes_->Increment(data.size());
  // Consume the reply context stashed by Recv (untraced if none pending);
  // the outbound NetEvent carries it so the proxy's outbound-queue wait,
  // shard service, and downlink wire spans attribute to the right trace.
  TraceContext reply_ctx;
  if (ConnSocket* state = FindSocket(sock)) {
    reply_ctx = {state->reply_trace_id, state->reply_parent};
    state->reply_trace_id = 0;
    state->reply_parent = 0;
  }
  ScopedSpan span(sim_, "netstub", "net.stub.send", reply_ctx);
  co_await phi_cpu_->Compute(params_.net_stub_cpu);
  NetEvent header;
  header.kind = NetEventKind::kData;
  header.sock = sock;
  header.length = static_cast<uint32_t>(data.size());
  if (reply_ctx.traced()) {
    TraceContext child = span.context();
    header.trace_id = child.trace_id;
    header.parent_span = child.parent_span;
  }
  co_return co_await plug_->Send(header, data);
}

Task<Status> NetStub::Close(int64_t sock) {
  co_await phi_cpu_->Compute(params_.net_stub_cpu);
  // Barrier: queued replies must reach the host before the kClose RPC, or
  // the proxy could tear the connection down ahead of them. No-op (and no
  // simulated time) when nothing is queued.
  (void)co_await plug_->Flush();
  if (ConnSocket* state = FindSocket(sock)) {
    state->closed = true;
    state->recv_queue.Close();
  } else if (ListenSocket* listener = FindListener(sock)) {
    listener->closed = true;
    // Reset the connections nobody accepted yet, as a kernel does.
    while (std::optional<int64_t> queued =
               listener->accept_queue.TryReceive()) {
      Spawn(*sim_, Close(*queued));
    }
    listener->accept_queue.Close();
  }
  NetRequest request;
  request.op = NetOp::kClose;
  request.sock = sock;
  SOLROS_CO_ASSIGN_OR_RETURN(NetResponse response,
                             co_await Call(request));
  if (response.error != ErrorCode::kOk) {
    co_return Status(response.error);
  }
  co_return OkStatus();
}

}  // namespace solros
