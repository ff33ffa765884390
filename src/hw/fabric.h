// Transaction-level PCIe fabric model.
//
// Devices (host sockets are implicit; endpoints are co-processors, NVMe
// SSDs, NICs) attach to a root complex per NUMA socket. A bulk transfer
// between two devices reserves every link on its path for the same interval
// (cut-through, not store-and-forward) at the bottleneck bandwidth:
//
//   endpoint --link--> root complex [--QPI--> root complex] --link--> endpoint
//
// Two fabric effects the paper leans on are modeled explicitly:
//  * per-direction asymmetric endpoint link bandwidth (Phi up 6.5 / down
//    6.0 GB/s);
//  * peer-to-peer transfers that cross the NUMA boundary collapse to
//    ~300 MB/s because a host processor must relay PCIe packets over QPI
//    (Fig. 1(a)) — host-terminated transfers are NOT subject to this cap.
#ifndef SOLROS_SRC_HW_FABRIC_H_
#define SOLROS_SRC_HW_FABRIC_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {

class UseSeries;

enum class DeviceType : uint8_t {
  kHost,  // a host socket's memory/root complex
  kPhi,
  kNvme,
  kNic,
};

std::string_view DeviceTypeName(DeviceType type);

// Index into the fabric's device table. Value-type, cheap to copy.
struct DeviceId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
  bool operator==(const DeviceId&) const = default;
};

class PcieFabric {
 public:
  PcieFabric(Simulator* sim, const HwParams& params);

  // Registers a device attached to `socket`'s root complex. Host devices
  // represent the socket itself (its DRAM); one is created per socket by
  // the constructor and can be looked up with HostDevice(socket).
  DeviceId AddDevice(DeviceType type, int socket, std::string name);

  DeviceId HostDevice(int socket) const;

  DeviceType TypeOf(DeviceId id) const;
  int SocketOf(DeviceId id) const;
  const std::string& NameOf(DeviceId id) const;
  size_t device_count() const { return devices_.size(); }

  // True when the path between the devices crosses the QPI interconnect.
  bool CrossesNuma(DeviceId a, DeviceId b) const;

  // Moves `bytes` from `src` to `dst`, additionally capped at
  // `initiator_rate` (the DMA engine's own bandwidth; pass 0 for no cap).
  // `peer_to_peer` marks transfers where neither endpoint is host memory —
  // only those suffer the cross-NUMA relay cap. Reserves the path at call
  // time; the returned awaiter resumes the caller when the last byte
  // arrives, and is ready at once for an empty or same-device transfer.
  //   co_await fabric->Transfer(src, dst, bytes, rate, p2p);
  WakeAt Transfer(DeviceId src, DeviceId dst, uint64_t bytes,
                  double initiator_rate, bool peer_to_peer);

  // The bandwidth a transfer would see (bottleneck of the path), without
  // queueing.
  double PathBandwidth(DeviceId src, DeviceId dst, double initiator_rate,
                       bool peer_to_peer) const;

  // Cumulative accounting (used by benches and tests).
  uint64_t total_bytes_transferred() const { return total_bytes_; }
  uint64_t transfer_count() const { return transfer_count_; }

 private:
  struct Link {
    double bw = 0.0;
    SimTime busy_until = 0;
    // USE telemetry for this link ("fabric.<device>.up/.down",
    // "fabric.qpi"); null when the simulator carries no TelemetryHub.
    UseSeries* use = nullptr;
  };
  struct Device {
    DeviceType type;
    int socket;
    std::string name;
    Link up;    // device -> root complex
    Link down;  // root complex -> device
  };

  // The links on the path src->dst in order: the source's up link, the
  // QPI when the path crosses NUMA, the destination's down link.
  struct LinkPath {
    std::array<Link*, 3> links = {};
    size_t size = 0;
    Link* const* begin() const { return links.data(); }
    Link* const* end() const { return links.data() + size; }
  };
  LinkPath PathLinks(DeviceId src, DeviceId dst);

  Simulator* sim_;
  HwParams params_;
  std::vector<Device> devices_;
  std::vector<DeviceId> host_by_socket_;
  Link qpi_;  // single shared interconnect (modeled symmetric)
  uint64_t total_bytes_ = 0;
  uint64_t transfer_count_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_FABRIC_H_
