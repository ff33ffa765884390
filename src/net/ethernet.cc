#include "src/net/ethernet.h"

#include <utility>

#include "src/base/logging.h"

namespace solros {

EthernetFabric::EthernetFabric(Simulator* sim, const HwParams& params)
    : sim_(sim),
      params_(params),
      wire_up_(sim, params.nic_bw, params.nic_wire_latency),
      wire_down_(sim, params.nic_bw, params.nic_wire_latency),
      c_payload_copies_(
          MetricRegistry::Default().GetCounter("net.wire.payload_copies")),
      c_pool_hits_(
          MetricRegistry::Default().GetCounter("net.wire.pool_hits")) {
  if (sim->telemetry() != nullptr) {
    wire_up_.set_use_series(sim->telemetry()->GetSeries("net.wire.up"));
    wire_down_.set_use_series(sim->telemetry()->GetSeries("net.wire.down"));
  }
}

void EthernetFabric::RegisterPort(uint16_t port, ServerPort* handler) {
  CHECK(handler != nullptr);
  CHECK(ports_.find(port) == ports_.end()) << "port " << port << " in use";
  ports_[port] = handler;
}

void EthernetFabric::UnregisterPort(uint16_t port) { ports_.erase(port); }

std::vector<uint8_t> EthernetFabric::AcquirePayload(
    std::span<const uint8_t> data) {
  c_payload_copies_->Increment();
  std::vector<uint8_t> buffer;
  if (!payload_pool_.empty()) {
    c_pool_hits_->Increment();
    buffer = std::move(payload_pool_.back());
    payload_pool_.pop_back();
    buffer.clear();
  }
  buffer.insert(buffer.end(), data.begin(), data.end());
  return buffer;
}

void EthernetFabric::ReleasePayload(std::vector<uint8_t> buffer) {
  if (payload_pool_.size() >= kPayloadPoolCap || buffer.capacity() == 0) {
    return;  // drop: the pool is bounded so idle capacity can't accumulate
  }
  payload_pool_.push_back(std::move(buffer));
}

Task<void> EthernetFabric::WireToServer(uint64_t bytes) {
  co_await wire_up_.Transfer(bytes);
}

Task<void> EthernetFabric::WireToClient(uint64_t bytes) {
  co_await wire_down_.Transfer(bytes);
}

Task<Result<uint64_t>> EthernetFabric::ClientConnect(uint32_t client_addr,
                                                     uint16_t port,
                                                     Processor* client_cpu) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    co_return Status(ErrorCode::kConnectionReset, "connection refused");
  }
  ServerPort* handler = it->second;
  // Client-side connect() cost + SYN/ACK handshake across the wire.
  co_await client_cpu->Compute(params_.tcp_segment_cpu);
  co_await WireToServer(64);
  uint64_t conn_id = next_conn_++;
  conns_.Emplace(conn_id, sim_, handler);
  Status accepted = co_await handler->OnConnect(conn_id, port, client_addr);
  if (!accepted.ok()) {
    conns_.Erase(conn_id);
    co_return accepted;
  }
  co_await WireToClient(64);  // SYN-ACK
  co_return conn_id;
}

Task<Status> EthernetFabric::ClientSend(uint64_t conn_id,
                                        std::span<const uint8_t> data,
                                        Processor* client_cpu,
                                        TraceContext ctx) {
  Conn* conn = conns_.Find(conn_id);
  if (conn == nullptr || !conn->open) {
    co_return Status(ErrorCode::kNotConnected);
  }
  ServerPort* handler = conn->handler;
  // Client stack cost per segment, then the wire.
  co_await client_cpu->Compute(TcpSegments(data.size()) *
                               params_.tcp_segment_cpu);
  {
    // Uplink transit (queueing + serialization + propagation), closed
    // before the server port runs so the wire stage never overlaps service.
    ScopedSpan wire(ctx.traced() ? sim_->tracer() : nullptr, "wire",
                    "net.wire.transit", ctx);
    co_await WireToServer(data.size() + 64);
  }
  std::vector<uint8_t> payload = AcquirePayload(data);
  co_await handler->OnClientData(conn_id, std::move(payload), ctx);
  co_return OkStatus();
}

Task<Result<std::vector<uint8_t>>> EthernetFabric::ClientRecv(
    uint64_t conn_id) {
  Conn* conn = conns_.Find(conn_id);
  if (conn == nullptr) {
    co_return Status(ErrorCode::kNotConnected);
  }
  std::optional<std::vector<uint8_t>> message =
      co_await conn->to_client.Receive();
  if (!message.has_value()) {
    co_return Status(ErrorCode::kConnectionReset, "peer closed");
  }
  co_return std::move(*message);
}

Task<void> EthernetFabric::ClientClose(uint64_t conn_id,
                                       Processor* client_cpu) {
  Conn* conn = conns_.Find(conn_id);
  if (conn == nullptr) {
    co_return;
  }
  co_await client_cpu->Compute(params_.tcp_segment_cpu);
  co_await WireToServer(64);
  conn->open = false;
  co_await conn->handler->OnClientClose(conn_id);
  conn->to_client.Close();
}

Task<Status> EthernetFabric::DeliverToClient(uint64_t conn_id,
                                             std::vector<uint8_t> data,
                                             TraceContext ctx) {
  Conn* conn = conns_.Find(conn_id);
  if (conn == nullptr || !conn->open) {
    co_return Status(ErrorCode::kNotConnected);
  }
  {
    ScopedSpan wire(ctx.traced() ? sim_->tracer() : nullptr, "wire",
                    "net.wire.transit", ctx);
    co_await WireToClient(data.size() + 64);
  }
  co_await conn->to_client.Send(std::move(data));
  co_return OkStatus();
}

void EthernetFabric::CloseFromServer(uint64_t conn_id) {
  Conn* conn = conns_.Find(conn_id);
  if (conn == nullptr) {
    return;
  }
  conn->open = false;
  conn->to_client.Close();
}

}  // namespace solros
