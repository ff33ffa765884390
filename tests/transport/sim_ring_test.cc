#include "src/transport/sim_ring.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu{&sim, host, 48, 1.0, "host"};
  Processor phi_cpu{&sim, phi, 244, 0.125, "phi"};

  // Phi -> host ring, master at the Phi (the paper's RPC-request shape).
  SimRingConfig UpConfig() {
    SimRingConfig config;
    config.capacity = KiB(64);
    config.master_device = phi;
    config.producer_device = phi;
    config.consumer_device = host;
    config.producer_cpu = &phi_cpu;
    config.consumer_cpu = &host_cpu;
    return config;
  }
};

Task<void> SendN(SimRing* ring, int n, size_t size) {
  std::vector<uint8_t> payload(size, 0x5a);
  for (int i = 0; i < n; ++i) {
    payload[0] = static_cast<uint8_t>(i);
    Status status = co_await ring->Send(payload);
    CHECK_OK(status);
  }
}

Task<void> RecvN(SimRing* ring, int n, std::vector<uint8_t>* firsts) {
  for (int i = 0; i < n; ++i) {
    auto message = co_await ring->Receive();
    CHECK_OK(message);
    firsts->push_back((*message)[0]);
  }
}

TEST(SimRingTest, MessagesFlowInOrderAndTimeAdvances) {
  Rig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.UpConfig());
  std::vector<uint8_t> firsts;
  Spawn(rig.sim, SendN(&ring, 10, 64));
  Spawn(rig.sim, RecvN(&ring, 10, &firsts));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(firsts.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(firsts[i], i);
  }
  EXPECT_GT(rig.sim.now(), 0u);
  EXPECT_EQ(ring.messages_sent(), 10u);
  EXPECT_EQ(ring.messages_received(), 10u);
}

TEST(SimRingTest, BackpressureBlocksSenderUntilDrained) {
  Rig rig;
  SimRingConfig config = rig.UpConfig();
  config.capacity = KiB(4);  // tiny ring
  SimRing ring(&rig.sim, &rig.fabric, rig.params, config);
  // 8 x 1 KiB messages into a 4 KiB ring can't all be in flight at once.
  std::vector<uint8_t> firsts;
  Spawn(rig.sim, SendN(&ring, 8, 1000));
  rig.sim.RunUntilIdle();
  EXPECT_LT(ring.messages_sent(), 8u);  // sender is parked on full
  Spawn(rig.sim, RecvN(&ring, 8, &firsts));
  rig.sim.RunUntilIdle();
  EXPECT_EQ(ring.messages_sent(), 8u);
  EXPECT_EQ(firsts.size(), 8u);
}

TEST(SimRingTest, TryVariantsDoNotBlock) {
  Rig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.UpConfig());
  auto recv = RunSim(rig.sim, ring.TryReceive());
  EXPECT_EQ(recv.code(), ErrorCode::kWouldBlock);
  std::vector<uint8_t> payload(16, 1);
  EXPECT_TRUE(RunSim(rig.sim, ring.TrySend(payload)).ok());
  auto got = RunSim(rig.sim, ring.TryReceive());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 16u);
}

Task<void> TrySendInto(SimRing* ring, std::span<const uint8_t> payload,
                        Status* status) {
  *status = co_await ring->TrySend(payload);
}

TEST(SimRingTest, LocalPortsChargeNoControlLine) {
  Rig rig;
  SimRingConfig config = rig.UpConfig();
  config.master_device = rig.host;
  config.producer_device = rig.host;
  config.producer_cpu = &rig.host_cpu;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, config);
  std::vector<uint8_t> payload(64, 1);
  Status status = InternalError("not run");
  Spawn(rig.sim, TrySendInto(&ring, payload, &status));
  // The spawn, the enqueue's CPU charge and the local copy: a send with no
  // remote transaction waits on no control line and posts no event for it.
  EXPECT_EQ(rig.sim.RunUntilIdle(), 3u);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(ring.ring().producer_stats().remote_transactions(), 0u);
  EXPECT_EQ(rig.sim.now(),
            rig.params.rb_op_cpu + TransferTime(64, rig.params.host_mem_bw));
}

TEST(SimRingTest, CloseWakesReceiver) {
  Rig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.UpConfig());
  Result<std::vector<uint8_t>> result = Status(ErrorCode::kInternal);
  auto receiver = [](SimRing* r,
                     Result<std::vector<uint8_t>>* out) -> Task<void> {
    *out = co_await r->Receive();
  };
  Spawn(rig.sim, receiver(&ring, &result));
  rig.sim.RunUntilIdle();
  ring.Close();
  rig.sim.RunUntilIdle();
  EXPECT_EQ(result.code(), ErrorCode::kFailedPrecondition);
}

TEST(SimRingTest, LazyUpdateIsFasterThanEagerOverPcie) {
  // The Fig. 9 effect at SimRing level: eager control variables cost a
  // PCIe round trip per operation on the shadow port.
  auto run = [](bool lazy) -> Nanos {
    Rig rig;
    SimRingConfig config = rig.UpConfig();
    config.lazy_update = lazy;
    SimRing ring(&rig.sim, &rig.fabric, rig.params, config);
    std::vector<uint8_t> firsts;
    Spawn(rig.sim, SendN(&ring, 200, 64));
    Spawn(rig.sim, RecvN(&ring, 200, &firsts));
    rig.sim.RunUntilIdle();
    return rig.sim.now();
  };
  Nanos lazy_time = run(true);
  Nanos eager_time = run(false);
  EXPECT_LT(lazy_time, eager_time);
}

TEST(SimRingTest, LargePayloadUsesDmaPath) {
  Rig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.UpConfig());
  // 64-byte message: memcpy path (well under the host threshold).
  std::vector<uint8_t> firsts;
  Spawn(rig.sim, SendN(&ring, 1, 64));
  Spawn(rig.sim, RecvN(&ring, 1, &firsts));
  rig.sim.RunUntilIdle();
  Nanos small_time = rig.sim.now();

  Rig rig2;
  SimRingConfig big = rig2.UpConfig();
  big.capacity = MiB(4);
  SimRing ring2(&rig2.sim, &rig2.fabric, rig2.params, big);
  Spawn(rig2.sim, SendN(&ring2, 1, 256 * 1024));
  std::vector<uint8_t> firsts2;
  Spawn(rig2.sim, RecvN(&ring2, 1, &firsts2));
  rig2.sim.RunUntilIdle();
  // 256 KiB at DMA speed is well under a millisecond; the memcpy path
  // would take ~10 ms. Confirm we're on the fast path.
  EXPECT_LT(rig2.sim.now(), Milliseconds(2));
  EXPECT_GT(rig2.sim.now(), small_time);
}

}  // namespace
}  // namespace solros
