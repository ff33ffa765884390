#include "src/hw/fabric.h"

#include <gtest/gtest.h>

#include "src/base/units.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host0 = fabric.HostDevice(0);
  DeviceId host1 = fabric.HostDevice(1);
  DeviceId phi0 = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  DeviceId phi1 = fabric.AddDevice(DeviceType::kPhi, 1, "mic1");
  DeviceId nvme = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
};

TEST(FabricTest, DeviceRegistration) {
  Rig rig;
  EXPECT_EQ(rig.fabric.TypeOf(rig.phi0), DeviceType::kPhi);
  EXPECT_EQ(rig.fabric.SocketOf(rig.phi1), 1);
  EXPECT_EQ(rig.fabric.NameOf(rig.nvme), "nvme0");
  EXPECT_EQ(rig.fabric.TypeOf(rig.host0), DeviceType::kHost);
  EXPECT_EQ(DeviceTypeName(DeviceType::kNvme), "nvme");
}

TEST(FabricTest, CrossNumaDetection) {
  Rig rig;
  EXPECT_FALSE(rig.fabric.CrossesNuma(rig.phi0, rig.nvme));
  EXPECT_TRUE(rig.fabric.CrossesNuma(rig.phi1, rig.nvme));
  EXPECT_TRUE(rig.fabric.CrossesNuma(rig.host0, rig.host1));
}

TEST(FabricTest, PathBandwidthBottleneck) {
  Rig rig;
  // NVMe -> Phi same socket: the device uplink carries at most the flash
  // read rate (2.4 GB/s < the Gen3 x4 link's 3.2).
  EXPECT_DOUBLE_EQ(
      rig.fabric.PathBandwidth(rig.nvme, rig.phi0, 0.0, true),
      rig.params.nvme_read_bw);
  // Initiator cap applies.
  EXPECT_DOUBLE_EQ(
      rig.fabric.PathBandwidth(rig.nvme, rig.phi0, GBps(2.4), true),
      GBps(2.4));
}

TEST(FabricTest, CrossNumaP2pIsCapped) {
  Rig rig;
  // The paper's Fig. 1(a) relay effect: P2P across sockets ~ 300 MB/s.
  EXPECT_DOUBLE_EQ(
      rig.fabric.PathBandwidth(rig.nvme, rig.phi1, 0.0, true),
      rig.params.cross_numa_p2p_bw);
  // Host-terminated transfers are NOT capped.
  EXPECT_DOUBLE_EQ(
      rig.fabric.PathBandwidth(rig.nvme, rig.host1, 0.0, false),
      rig.params.nvme_read_bw);
}

Task<void> AwaitTransfer(PcieFabric* fabric, DeviceId src, DeviceId dst,
                         uint64_t bytes, bool peer_to_peer) {
  co_await fabric->Transfer(src, dst, bytes, 0.0, peer_to_peer);
}

TEST(FabricTest, TransferTakesBottleneckTime) {
  Rig rig;
  RunSim(rig.sim, AwaitTransfer(&rig.fabric, rig.phi0, rig.host0, MiB(64),
                                /*peer_to_peer=*/false));
  // 64 MiB at 6.5 GB/s + propagation.
  Nanos expected =
      TransferTime(MiB(64), rig.params.pcie_phi_up_bw) +
      rig.params.pcie_propagation;
  EXPECT_EQ(rig.sim.now(), expected);
  EXPECT_EQ(rig.fabric.total_bytes_transferred(), MiB(64));
}

Task<void> DoTransfer(PcieFabric* fabric, DeviceId src, DeviceId dst,
                      uint64_t bytes, WaitGroup* wg) {
  co_await fabric->Transfer(src, dst, bytes, 0.0, false);
  wg->Done();
}

TEST(FabricTest, SharedLinkSerializesTransfers) {
  Rig rig;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < 4; ++i) {
    wg.Add(1);
    Spawn(rig.sim,
          DoTransfer(&rig.fabric, rig.phi0, rig.host0, MiB(64), &wg));
  }
  rig.sim.RunUntilIdle();
  // Four 64 MiB transfers share phi0's uplink: 4x the single time.
  Nanos single = TransferTime(MiB(64), rig.params.pcie_phi_up_bw);
  EXPECT_EQ(rig.sim.now(), 4 * single + rig.params.pcie_propagation);
}

TEST(FabricTest, DisjointPathsRunInParallel) {
  Rig rig;
  WaitGroup wg(&rig.sim);
  wg.Add(2);
  Spawn(rig.sim,
        DoTransfer(&rig.fabric, rig.phi0, rig.host0, MiB(64), &wg));
  Spawn(rig.sim,
        DoTransfer(&rig.fabric, rig.phi1, rig.host1, MiB(64), &wg));
  rig.sim.RunUntilIdle();
  Nanos single = TransferTime(MiB(64), rig.params.pcie_phi_up_bw) +
                 rig.params.pcie_propagation;
  EXPECT_EQ(rig.sim.now(), single);
}

TEST(FabricTest, ZeroByteAndSelfTransfersAreFree) {
  Rig rig;
  RunSim(rig.sim, AwaitTransfer(&rig.fabric, rig.phi0, rig.host0, 0, false));
  EXPECT_EQ(rig.sim.now(), 0u);
  RunSim(rig.sim, AwaitTransfer(&rig.fabric, rig.phi0, rig.phi0, MiB(1), true));
  EXPECT_EQ(rig.sim.now(), 0u);
}

Task<void> FreeTransfers(PcieFabric* fabric, Simulator* sim, DeviceId a,
                         DeviceId b) {
  co_await fabric->Transfer(a, b, 0, 0.0, false);
  co_await fabric->Transfer(a, a, MiB(1), 0.0, true);
  EXPECT_EQ(sim->pending_events(), 0u);
  EXPECT_EQ(sim->now(), Microseconds(3));
}

TEST(FabricTest, FreeTransfersPostNoEvent) {
  Rig rig;
  rig.sim.RunUntil(Microseconds(3));
  Spawn(rig.sim, FreeTransfers(&rig.fabric, &rig.sim, rig.phi0, rig.host0));
  // The spawn is the only event: neither transfer suspended.
  EXPECT_EQ(rig.sim.RunUntilIdle(), 1u);
  EXPECT_EQ(rig.sim.now(), Microseconds(3));
  EXPECT_EQ(rig.fabric.transfer_count(), 0u);
}

}  // namespace
}  // namespace solros
