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
      control_line_(sim, 1) {
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

SimRing::CopyWaits SimRing::ChargeCopy(RingSide side, uint64_t bytes) {
  if (bytes == 0) {
    return {WakeAt::Ready(), std::nullopt};
  }
  if (!PortRemote(side)) {
    // Local copy within the master device's memory.
    return {WakeAt{sim_->now() + TransferTime(bytes, params_.host_mem_bw)},
            std::nullopt};
  }
  bool initiator_is_host = PortIsHost(side);
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
    // Remaining cost beyond the wire time: DMA setup.
    Nanos setup = initiator_is_host ? params_.dma_init_host
                                    : params_.dma_init_phi;
    return {fabric_->Transfer(src, dst, bytes, dma_bw, /*peer_to_peer=*/false),
            setup};
  }
  // load/store copies are PCIe transactions too: occupy the fabric at the
  // memcpy model's effective rate so concurrent copiers share the link
  // instead of summing past it.
  Nanos cost = CopyTime(params_, bytes, initiator_is_host, config_.copy_policy);
  double effective = RateBps(bytes, cost);
  return {fabric_->Transfer(src, dst, bytes, effective,
                            /*peer_to_peer=*/false),
          std::nullopt};
}

WakeAt SimRing::ChargeControl(uint64_t transactions) {
  if (transactions == 0) {
    return WakeAt::Ready();
  }
  static Counter* const txns =
      MetricRegistry::Default().GetCounter("transport.ring.control_txns");
  txns->Increment(transactions);
  SimTime end =
      control_line_.Reserve(transactions * params_.pcie_transaction_latency);
  if (Tracer* tracer = sim_->tracer(); tracer != nullptr) {
    tracer->RecordSpan("ring", "ring.sync", sim_->now(), end);
  }
  return WakeAt{end};
}

Task<Status> SimRing::Send(std::span<const uint8_t> head,
                           std::span<const uint8_t> tail) {
  const uint64_t size = head.size() + tail.size();
  while (true) {
    if (closed_) {
      co_return FailedPreconditionError("ring closed");
    }
    uint64_t epoch = space_epoch_;
    {
      TRACE_SPAN(sim_, "ring", "ring.enqueue");
      co_await config_.producer_cpu->Compute(params_.rb_op_cpu);

      // A producer-side stall (preemption mid-enqueue) delays the
      // operation; it never fakes a full ring, which would strand this loop
      // with no matching space_avail notification.
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
      int rc = ring_.Enqueue(static_cast<uint32_t>(size), &rb_buf);
      uint64_t txn_after = ring_.producer_stats().remote_transactions();
      co_await ChargeControl(txn_after - txn_before);
      if (rc == kRbOk) {
        CopyWaits copy = ChargeCopy(RingSide::kProducer, size);
        co_await copy.transfer;
        if (copy.setup.has_value()) {
          co_await Delay(*copy.setup);
        }
        ring_.CopyToRbBuf(rb_buf, head.data(),
                          static_cast<uint32_t>(head.size()));
        ring_.CopyToRbBuf(static_cast<uint8_t*>(rb_buf) + head.size(),
                          tail.data(), static_cast<uint32_t>(tail.size()));
        ring_.SetReady(rb_buf);
        if (sim_->tracer() != nullptr || use_ != nullptr) {
          ready_at_[rb_buf] = sim_->now();
        }
        if (use_ != nullptr) {
          use_->QueueDelta(sim_->now(), +1);
        }
        ++sent_;
        bytes_sent_ += size;
        static Counter* const sends = MetricRegistry::Default().GetCounter(
            "transport.ring.messages_sent");
        static Counter* const bytes = MetricRegistry::Default().GetCounter(
            "transport.ring.bytes_sent");
        sends->Increment();
        bytes->Increment(size);
        ++data_epoch_;
        data_avail_.NotifyAll();
        co_return OkStatus();
      }
      if (rc != kRbWouldBlock) {
        co_return InvalidArgumentError("ring rejected payload");
      }
      TRACE_INSTANT(sim_, "ring", "ring.enqueue.would_block");
    }
    // Only sleep if no space was released while we were polling.
    while (space_epoch_ == epoch && !closed_) {
      TRACE_SPAN(sim_, "ring", "ring.wait.full");
      co_await space_avail_.Wait();
    }
  }
}

Task<Status> SimRing::Receive(std::vector<uint8_t>* out) {
  while (true) {
    uint64_t epoch = data_epoch_;
    {
      TRACE_SPAN(sim_, "ring", "ring.dequeue");
      co_await config_.consumer_cpu->Compute(params_.rb_op_cpu);

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
      if (rc == kRbOk) {
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
        CopyWaits copy = ChargeCopy(RingSide::kConsumer, size);
        co_await copy.transfer;
        if (copy.setup.has_value()) {
          co_await Delay(*copy.setup);
        }
        out->resize(size);
        ring_.CopyFromRbBuf(out->data(), rb_buf, size);
        ring_.SetDone(rb_buf);
        ++received_;
        bytes_received_ += size;
        static Counter* const recvs = MetricRegistry::Default().GetCounter(
            "transport.ring.messages_received");
        recvs->Increment();
        ++space_epoch_;
        space_avail_.NotifyAll();
        co_return OkStatus();
      }
      CHECK_EQ(rc, kRbWouldBlock);
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
