#include "src/net/direct_server.h"

#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// Host bridge CPU to relay one TCP segment onto the PCIe link.
constexpr Nanos kBridgeCpuPerSegment = Nanoseconds(500);

}  // namespace

DirectServer::DirectServer(Simulator* sim, PcieFabric* fabric,
                           const HwParams& params, EthernetFabric* ethernet,
                           const Config& config)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      ethernet_(ethernet),
      config_(config),
      rx_queue_(sim, 1) {
  CHECK(config.stack_cpu != nullptr);
}

Task<void> DirectServer::InboundStack(uint64_t bytes) {
  uint64_t segments = TcpSegments(bytes);
  if (config_.bridge_cpu != nullptr) {
    // The host bridge relays each frame onto the PCIe link.
    co_await config_.bridge_cpu->Compute(segments * kBridgeCpuPerSegment);
    co_await fabric_->Transfer(config_.bridge_device, config_.stack_device,
                               bytes + 64, /*initiator_rate=*/0.0,
                               /*peer_to_peer=*/false);
  }
  // Full TCP/IP receive processing on the stack's processor.
  Nanos work = params_.tcp_message_cpu + segments * params_.tcp_segment_cpu;
  if (config_.single_rx_queue) {
    // One softirq context: all inbound frames serialize (queueing delay is
    // the co-processor-centric tail of Fig. 1(b)).
    co_await rx_queue_.Use(config_.stack_cpu->ScaledTime(work));
  } else {
    co_await config_.stack_cpu->Compute(work);
  }
}

Task<void> DirectServer::OutboundStack(uint64_t bytes) {
  uint64_t segments = TcpSegments(bytes);
  co_await config_.stack_cpu->Compute(params_.tcp_message_cpu +
                                      segments * params_.tcp_segment_cpu);
  if (config_.bridge_cpu != nullptr) {
    co_await fabric_->Transfer(config_.stack_device, config_.bridge_device,
                               bytes + 64, 0.0, false);
    co_await config_.bridge_cpu->Compute(segments * kBridgeCpuPerSegment);
  }
}

Task<Result<int64_t>> DirectServer::Listen(uint16_t port, int backlog) {
  if (port_to_listener_.contains(port)) {
    co_return AlreadyExistsError("port in use");
  }
  co_await config_.stack_cpu->Compute(params_.tcp_segment_cpu);
  int64_t handle = next_handle_++;
  Listener listener;
  listener.port = port;
  listener.accept_queue = std::make_unique<Channel<int64_t>>(
      sim_, static_cast<size_t>(backlog));
  listeners_.emplace(handle, std::move(listener));
  port_to_listener_[port] = handle;
  ethernet_->RegisterPort(port, this);
  co_return handle;
}

Task<Result<int64_t>> DirectServer::Accept(int64_t listener) {
  auto it = listeners_.find(listener);
  if (it == listeners_.end() || it->second.closed) {
    co_return InvalidArgumentError("bad listener handle");
  }
  co_await config_.stack_cpu->Compute(params_.tcp_segment_cpu);
  std::optional<int64_t> sock = co_await it->second.accept_queue->Receive();
  if (!sock.has_value()) {
    co_return Status(ErrorCode::kConnectionReset, "listener closed");
  }
  co_return *sock;
}

Task<Result<std::vector<uint8_t>>> DirectServer::Recv(int64_t sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end() || it->second.closed) {
    co_return InvalidArgumentError("bad socket handle");
  }
  co_await config_.stack_cpu->Compute(params_.tcp_segment_cpu / 2);
  std::optional<RecvItem> item = co_await it->second.recv_queue->Receive();
  if (!item.has_value()) {
    co_return Status(ErrorCode::kConnectionReset, "peer closed");
  }
  // Remember the request's context so the next Send on this socket (the
  // reply, in request/response protocols) joins the same trace.
  it->second.reply_trace_id = item->trace_id;
  it->second.reply_parent = item->parent_span;
  co_return std::move(item->data);
}

Task<Status> DirectServer::Send(int64_t sock, std::span<const uint8_t> data) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end() || !it->second.open) {
    co_return Status(ErrorCode::kNotConnected);
  }
  TraceContext ctx{it->second.reply_trace_id, it->second.reply_parent};
  it->second.reply_trace_id = 0;
  it->second.reply_parent = 0;
  {
    // Outbound TCP transmit processing — the direct stack's service stage.
    ScopedSpan stack(ctx.traced() ? sim_->tracer() : nullptr, "directsrv",
                     "net.server.stack", ctx);
    co_await OutboundStack(data.size());
  }
  co_return co_await ethernet_->DeliverToClient(
      it->second.conn_id, std::vector<uint8_t>(data.begin(), data.end()),
      ctx);
}

Task<Status> DirectServer::Close(int64_t sock) {
  if (auto lit = listeners_.find(sock);
      lit != listeners_.end() && !lit->second.closed) {
    Listener& listener = lit->second;
    listener.closed = true;
    port_to_listener_.erase(listener.port);
    ethernet_->UnregisterPort(listener.port);
    // Reset the connections nobody accepted yet, as a kernel does; a task
    // parked in Accept wakes with kConnectionReset.
    while (std::optional<int64_t> queued =
               listener.accept_queue->TryReceive()) {
      CloseSocket(sockets_.at(*queued));
    }
    listener.accept_queue->Close();
    co_return OkStatus();
  }
  auto it = sockets_.find(sock);
  if (it == sockets_.end() || it->second.closed) {
    co_return InvalidArgumentError("bad socket handle");
  }
  CloseSocket(it->second);
  co_return OkStatus();
}

void DirectServer::CloseSocket(Socket& socket) {
  socket.open = false;
  socket.closed = true;
  socket.recv_queue->Close();
  ethernet_->CloseFromServer(socket.conn_id);
  conn_to_sock_.erase(socket.conn_id);
}

Task<Status> DirectServer::OnConnect(uint64_t conn_id, uint16_t port,
                                     uint32_t client_addr) {
  auto pit = port_to_listener_.find(port);
  if (pit == port_to_listener_.end()) {
    co_return Status(ErrorCode::kConnectionReset, "no listener");
  }
  Listener& listener = listeners_.at(pit->second);
  co_await InboundStack(64);  // SYN processing
  int64_t handle = next_handle_++;
  Socket socket;
  socket.conn_id = conn_id;
  socket.recv_queue = std::make_unique<Channel<RecvItem>>(sim_, 0);
  sockets_.emplace(handle, std::move(socket));
  conn_to_sock_[conn_id] = handle;
  if (!listener.accept_queue->TrySend(handle)) {
    sockets_.erase(handle);
    conn_to_sock_.erase(conn_id);
    co_return Status(ErrorCode::kConnectionReset, "backlog full");
  }
  co_return OkStatus();
}

Task<void> DirectServer::OnClientData(uint64_t conn_id,
                                      std::vector<uint8_t> data,
                                      TraceContext ctx) {
  auto it = conn_to_sock_.find(conn_id);
  if (it == conn_to_sock_.end()) {
    co_return;
  }
  {
    // Inbound TCP receive processing (bridge hop + softirq queueing
    // included) — the direct stack's service stage.
    ScopedSpan stack(ctx.traced() ? sim_->tracer() : nullptr, "directsrv",
                     "net.server.stack", ctx);
    co_await InboundStack(data.size());
  }
  auto sit = sockets_.find(it->second);
  if (sit != sockets_.end() && sit->second.open) {
    co_await sit->second.recv_queue->Send(
        {std::move(data), ctx.trace_id, ctx.parent_span});
  }
}

Task<void> DirectServer::OnClientClose(uint64_t conn_id) {
  auto it = conn_to_sock_.find(conn_id);
  if (it == conn_to_sock_.end()) {
    co_return;
  }
  co_await InboundStack(64);
  auto sit = sockets_.find(it->second);
  if (sit != sockets_.end()) {
    sit->second.open = false;
    sit->second.recv_queue->Close();
  }
}

}  // namespace solros
