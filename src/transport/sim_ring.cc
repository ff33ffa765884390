#include "src/transport/sim_ring.h"

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

RingBufferConfig MakeRingConfig(const SimRingConfig& config) {
  RingBufferConfig rb;
  rb.capacity = config.capacity;
  rb.master_side = config.master_device == config.producer_device
                       ? RingSide::kProducer
                       : RingSide::kConsumer;
  rb.lazy_update = config.lazy_update;
  rb.combining = config.combining;
  return rb;
}

}  // namespace

SimRing::SimRing(Simulator* sim, PcieFabric* fabric, const HwParams& params,
                 const SimRingConfig& config)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      config_(config),
      ring_(MakeRingConfig(config)),
      data_avail_(sim),
      space_avail_(sim),
      control_line_(sim, 1, "ring-control") {
  CHECK(config.producer_cpu != nullptr && config.consumer_cpu != nullptr);
  CHECK(config.master_device == config.producer_device ||
        config.master_device == config.consumer_device)
      << "master must be one of the two port devices";
  if (sim->telemetry() != nullptr && !config.name.empty()) {
    use_ = sim->telemetry()->GetSeries("ring." + config.name);
  }
}

bool SimRing::PortRemote(RingSide side) const {
  DeviceId port_dev = side == RingSide::kProducer ? config_.producer_device
                                                  : config_.consumer_device;
  return !(port_dev == config_.master_device);
}

bool SimRing::PortIsHost(RingSide side) const {
  DeviceId port_dev = side == RingSide::kProducer ? config_.producer_device
                                                  : config_.consumer_device;
  return fabric_->TypeOf(port_dev) == DeviceType::kHost;
}

Task<void> SimRing::ChargeCopy(RingSide side, uint64_t bytes) {
  if (bytes == 0) {
    co_return;
  }
  if (!PortRemote(side)) {
    // Local copy within the master device's memory.
    co_await Delay(TransferTime(bytes, params_.host_mem_bw));
    co_return;
  }
  bool initiator_is_host = PortIsHost(side);
  Nanos cost = CopyTime(params_, bytes, initiator_is_host,
                        config_.copy_policy);
  // Charge fabric occupancy for the bulk move so concurrent rings contend
  // realistically; direction: producer pushes toward master, consumer pulls
  // from master.
  DeviceId port_dev = side == RingSide::kProducer ? config_.producer_device
                                                  : config_.consumer_device;
  DeviceId src = side == RingSide::kProducer ? port_dev : config_.master_device;
  DeviceId dst = side == RingSide::kProducer ? config_.master_device : port_dev;
  bool used_dma =
      config_.copy_policy == CopyPolicy::kDma ||
      (config_.copy_policy == CopyPolicy::kAdaptive &&
       AdaptivePicksDma(params_, bytes, initiator_is_host));
  if (used_dma) {
    double dma_bw =
        initiator_is_host ? params_.dma_bw_host : params_.dma_bw_phi;
    co_await fabric_->Transfer(src, dst, bytes, dma_bw,
                               /*peer_to_peer=*/false);
    // Remaining cost beyond the wire time: DMA setup.
    Nanos setup = initiator_is_host ? params_.dma_init_host
                                    : params_.dma_init_phi;
    co_await Delay(setup);
  } else {
    // load/store copies are PCIe transactions too: occupy the fabric at
    // the memcpy model's effective rate so concurrent copiers share the
    // link instead of summing past it.
    double effective = RateBps(bytes, cost);
    co_await fabric_->Transfer(src, dst, bytes, effective,
                               /*peer_to_peer=*/false);
  }
}

Task<void> SimRing::ChargeControl(uint64_t transactions) {
  if (transactions == 0) {
    co_return;
  }
  static Counter* const txns =
      MetricRegistry::Default().GetCounter("transport.ring.control_txns");
  txns->Increment(transactions);
  TRACE_SPAN(sim_, "ring", "ring.sync");
  co_await control_line_.Use(transactions * params_.pcie_transaction_latency);
}

Task<Status> SimRing::TrySend(std::span<const uint8_t> payload) {
  TRACE_SPAN(sim_, "ring", "ring.enqueue");
  Processor* cpu = config_.producer_cpu;
  co_await cpu->Compute(params_.rb_op_cpu);

  // A producer-side stall (preemption mid-enqueue) delays the operation; it
  // never fakes kWouldBlock, which would strand the Send loop with no
  // matching space_avail notification.
  static FaultPoint* const send_stall =
      Faults().GetPoint("transport.ring.send_stall");
  if (send_stall->ShouldFire()) {
    static Counter* const stalls = MetricRegistry::Default().GetCounter(
        "transport.ring.send_stalls");
    stalls->Increment();
    TRACE_INSTANT(sim_, "ring", "fault.ring.send_stall");
    if (use_ != nullptr) {
      use_->AddError(sim_->now());
    }
    co_await Delay(params_.ring_stall_latency);
  }

  uint64_t txn_before = ring_.producer_stats().remote_transactions();
  void* rb_buf = nullptr;
  int rc = ring_.Enqueue(static_cast<uint32_t>(payload.size()), &rb_buf);
  uint64_t txn_after = ring_.producer_stats().remote_transactions();
  co_await ChargeControl(txn_after - txn_before);
  if (rc == kRbWouldBlock) {
    TRACE_INSTANT(sim_, "ring", "ring.enqueue.would_block");
    co_return WouldBlockError();
  }
  if (rc != kRbOk) {
    co_return InvalidArgumentError("ring rejected payload");
  }
  co_await ChargeCopy(RingSide::kProducer, payload.size());
  ring_.CopyToRbBuf(rb_buf, payload.data(),
                    static_cast<uint32_t>(payload.size()));
  ring_.SetReady(rb_buf);
  if (sim_->tracer() != nullptr || use_ != nullptr) {
    ready_at_[rb_buf] = sim_->now();
  }
  if (use_ != nullptr) {
    use_->QueueDelta(sim_->now(), +1);
  }
  ++sent_;
  bytes_sent_ += payload.size();
  static Counter* const sends =
      MetricRegistry::Default().GetCounter("transport.ring.messages_sent");
  static Counter* const bytes =
      MetricRegistry::Default().GetCounter("transport.ring.bytes_sent");
  sends->Increment();
  bytes->Increment(payload.size());
  ++data_epoch_;
  data_avail_.NotifyAll();
  co_return OkStatus();
}

Task<Status> SimRing::Send(std::span<const uint8_t> payload) {
  while (true) {
    if (closed_) {
      co_return FailedPreconditionError("ring closed");
    }
    uint64_t epoch = space_epoch_;
    Status status = co_await TrySend(payload);
    if (status.code() != ErrorCode::kWouldBlock) {
      co_return status;
    }
    // Only sleep if no space was released while we were polling.
    while (space_epoch_ == epoch && !closed_) {
      TRACE_SPAN(sim_, "ring", "ring.wait.full");
      co_await space_avail_.Wait();
    }
  }
}

Task<Result<std::vector<uint8_t>>> SimRing::TryReceive() {
  TRACE_SPAN(sim_, "ring", "ring.dequeue");
  Processor* cpu = config_.consumer_cpu;
  co_await cpu->Compute(params_.rb_op_cpu);

  // A consumer-side stall (descheduled consumer) leaves entries queued
  // longer, which backpressures producers once the ring fills.
  static FaultPoint* const recv_stall =
      Faults().GetPoint("transport.ring.recv_stall");
  if (recv_stall->ShouldFire()) {
    static Counter* const stalls = MetricRegistry::Default().GetCounter(
        "transport.ring.recv_stalls");
    stalls->Increment();
    TRACE_INSTANT(sim_, "ring", "fault.ring.recv_stall");
    if (use_ != nullptr) {
      use_->AddError(sim_->now());
    }
    co_await Delay(params_.ring_stall_latency);
  }

  uint64_t txn_before = ring_.consumer_stats().remote_transactions();
  uint32_t size = 0;
  void* rb_buf = nullptr;
  int rc = ring_.Dequeue(&size, &rb_buf);
  uint64_t txn_after = ring_.consumer_stats().remote_transactions();
  co_await ChargeControl(txn_after - txn_before);
  if (rc == kRbWouldBlock) {
    co_return WouldBlockError();
  }
  CHECK_EQ(rc, kRbOk);
  if (sim_->tracer() != nullptr || use_ != nullptr) {
    auto it = ready_at_.find(rb_buf);
    if (it != ready_at_.end()) {
      last_dequeue_stamp_ = DequeueStamp{it->second, sim_->now()};
      ready_at_.erase(it);
    } else {
      last_dequeue_stamp_.reset();  // message predates tracer binding
    }
  }
  if (use_ != nullptr) {
    use_->QueueDelta(sim_->now(), -1);
    Nanos waited = last_dequeue_stamp_.has_value()
                       ? last_dequeue_stamp_->dequeue_at -
                             last_dequeue_stamp_->ready_at
                       : 0;
    use_->CompleteOp(sim_->now(), waited);
  }
  co_await ChargeCopy(RingSide::kConsumer, size);
  std::vector<uint8_t> out(size);
  ring_.CopyFromRbBuf(out.data(), rb_buf, size);
  ring_.SetDone(rb_buf);
  ++received_;
  bytes_received_ += size;
  static Counter* const recvs =
      MetricRegistry::Default().GetCounter("transport.ring.messages_received");
  recvs->Increment();
  ++space_epoch_;
  space_avail_.NotifyAll();
  co_return out;
}

Task<Result<std::vector<uint8_t>>> SimRing::Receive() {
  while (true) {
    uint64_t epoch = data_epoch_;
    auto result = co_await TryReceive();
    if (result.code() != ErrorCode::kWouldBlock) {
      co_return result;
    }
    if (closed_) {
      co_return FailedPreconditionError("ring closed and drained");
    }
    // Only sleep if nothing became ready while we were polling.
    while (data_epoch_ == epoch && !closed_) {
      TRACE_SPAN(sim_, "ring", "ring.wait.empty");
      co_await data_avail_.Wait();
    }
  }
}

void SimRing::Close() {
  closed_ = true;
  data_avail_.NotifyAll();
  space_avail_.NotifyAll();
}

}  // namespace solros
