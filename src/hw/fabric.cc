#include "src/hw/fabric.h"

#include <algorithm>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {

std::string_view DeviceTypeName(DeviceType type) {
  switch (type) {
    case DeviceType::kHost:
      return "host";
    case DeviceType::kPhi:
      return "phi";
    case DeviceType::kNvme:
      return "nvme";
    case DeviceType::kNic:
      return "nic";
  }
  return "unknown";
}

PcieFabric::PcieFabric(Simulator* sim, const HwParams& params)
    : sim_(sim), params_(params) {
  CHECK(sim != nullptr);
  qpi_.bw = params_.qpi_bw;
  if (sim_->telemetry() != nullptr) {
    qpi_.use = sim_->telemetry()->GetSeries("fabric.qpi");
  }
  host_by_socket_.resize(params_.host_sockets);
  for (int s = 0; s < params_.host_sockets; ++s) {
    host_by_socket_[s] =
        AddDevice(DeviceType::kHost, s, "host-socket" + std::to_string(s));
  }
}

DeviceId PcieFabric::AddDevice(DeviceType type, int socket,
                               std::string name) {
  CHECK(socket >= 0 && socket < params_.host_sockets)
      << "bad socket " << socket;
  Device dev;
  dev.type = type;
  dev.socket = socket;
  dev.name = std::move(name);
  switch (type) {
    case DeviceType::kHost:
      dev.up.bw = params_.host_mem_bw;
      dev.down.bw = params_.host_mem_bw;
      break;
    case DeviceType::kPhi:
      dev.up.bw = params_.pcie_phi_up_bw;
      dev.down.bw = params_.pcie_phi_down_bw;
      break;
    case DeviceType::kNvme:
      // The device link carries at most what flash can sustain in each
      // direction (reads flow up, writes flow down), so command execution
      // charges one pipelined bottleneck instead of flash + link serially.
      dev.up.bw = std::min(params_.pcie_nvme_bw, params_.nvme_read_bw);
      dev.down.bw = std::min(params_.pcie_nvme_bw, params_.nvme_write_bw);
      break;
    case DeviceType::kNic:
      dev.up.bw = params_.pcie_nic_bw;
      dev.down.bw = params_.pcie_nic_bw;
      break;
  }
  if (sim_->telemetry() != nullptr) {
    dev.up.use = sim_->telemetry()->GetSeries("fabric." + dev.name + ".up");
    dev.down.use =
        sim_->telemetry()->GetSeries("fabric." + dev.name + ".down");
  }
  devices_.push_back(std::move(dev));
  return DeviceId{static_cast<int32_t>(devices_.size() - 1)};
}

DeviceId PcieFabric::HostDevice(int socket) const {
  CHECK(socket >= 0 && socket < static_cast<int>(host_by_socket_.size()));
  return host_by_socket_[socket];
}

DeviceType PcieFabric::TypeOf(DeviceId id) const {
  CHECK(id.valid() && id.index < static_cast<int32_t>(devices_.size()));
  return devices_[id.index].type;
}

int PcieFabric::SocketOf(DeviceId id) const {
  CHECK(id.valid() && id.index < static_cast<int32_t>(devices_.size()));
  return devices_[id.index].socket;
}

const std::string& PcieFabric::NameOf(DeviceId id) const {
  CHECK(id.valid() && id.index < static_cast<int32_t>(devices_.size()));
  return devices_[id.index].name;
}

bool PcieFabric::CrossesNuma(DeviceId a, DeviceId b) const {
  return SocketOf(a) != SocketOf(b);
}

PcieFabric::LinkPath PcieFabric::PathLinks(DeviceId src, DeviceId dst) {
  LinkPath path;
  path.links[path.size++] = &devices_[src.index].up;
  if (CrossesNuma(src, dst)) {
    path.links[path.size++] = &qpi_;
  }
  path.links[path.size++] = &devices_[dst.index].down;
  return path;
}

double PcieFabric::PathBandwidth(DeviceId src, DeviceId dst,
                                 double initiator_rate,
                                 bool peer_to_peer) const {
  double bw = devices_[src.index].up.bw;
  bw = std::min(bw, devices_[dst.index].down.bw);
  if (CrossesNuma(src, dst)) {
    bw = std::min(bw, qpi_.bw);
    if (peer_to_peer) {
      // Fig. 1(a): a host processor relays P2P PCIe packets across QPI.
      bw = std::min(bw, params_.cross_numa_p2p_bw);
    }
  }
  if (initiator_rate > 0.0) {
    bw = std::min(bw, initiator_rate);
  }
  return bw;
}

WakeAt PcieFabric::Transfer(DeviceId src, DeviceId dst, uint64_t bytes,
                            double initiator_rate, bool peer_to_peer) {
  CHECK(src.valid() && dst.valid());
  if (bytes == 0 || src == dst) {
    return WakeAt::Ready();
  }
  static Counter* const transfers =
      MetricRegistry::Default().GetCounter("hw.pcie.transfers");
  static Counter* const xfer_bytes =
      MetricRegistry::Default().GetCounter("hw.pcie.bytes");
  static Counter* const p2p_transfers =
      MetricRegistry::Default().GetCounter("hw.pcie.p2p_transfers");
  transfers->Increment();
  xfer_bytes->Increment(bytes);
  if (peer_to_peer) {
    p2p_transfers->Increment();
  }
  double bw = PathBandwidth(src, dst, initiator_rate, peer_to_peer);
  Nanos duration = TransferTime(bytes, bw);

  // An injected link stall models a transient retraining / replay storm:
  // the transfer still completes, but the path is held for the extra window
  // so contention ripples to everything sharing those links.
  static FaultPoint* const stall = Faults().GetPoint("hw.fabric.stall");
  if (stall->ShouldFire()) {
    static Counter* const stalls =
        MetricRegistry::Default().GetCounter("hw.fabric.stalls");
    stalls->Increment();
    TRACE_INSTANT(sim_, "pcie", "fault.fabric.stall");
    duration += params_.pcie_stall_latency;
  }

  // Cut-through reservation: every link on the path is held for the same
  // interval, starting when the most-contended link frees up.
  const LinkPath links = PathLinks(src, dst);
  SimTime start = sim_->now();
  for (Link* link : links) {
    start = std::max(start, link->busy_until);
  }
  SimTime end = start + duration;
  for (Link* link : links) {
    link->busy_until = end;
    if (link->use != nullptr) {
      link->use->RecordUse(sim_->now(), start, end);
    }
  }
  total_bytes_ += bytes;
  ++transfer_count_;
  SimTime arrival = end + params_.pcie_propagation;
  if (Tracer* tracer = sim_->tracer(); tracer != nullptr) {
    tracer->RecordSpan("pcie", "pcie.transfer", sim_->now(), arrival);
  }
  return WakeAt{arrival};
}

}  // namespace solros
