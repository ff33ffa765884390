#include "src/transport/sim_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  std::vector<uint8_t> message;
  for (int i = 0; i < n; ++i) {
    CHECK_OK(co_await ring->Receive(&message));
    firsts->push_back(message[0]);
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

Task<void> ReceiveInto(SimRing* ring, std::vector<uint8_t>* message,
                       Status* status) {
  *status = co_await ring->Receive(message);
}

Task<void> SendInto(SimRing* ring, std::span<const uint8_t> head,
                    std::span<const uint8_t> tail, Status* status) {
  *status = co_await ring->Send(head, tail);
}

TEST(SimRingTest, ReceiveParksOnEmptyRingUntilSend) {
  Rig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.UpConfig());
  std::vector<uint8_t> message(3, 9);  // overwritten, not appended to
  Status received = InternalError("not run");
  Spawn(rig.sim, ReceiveInto(&ring, &message, &received));
  rig.sim.RunUntilIdle();
  EXPECT_EQ(received.code(), ErrorCode::kInternal);  // still parked
  EXPECT_EQ(ring.messages_received(), 0u);
  // A header and its payload land as one record, back to back.
  const std::vector<uint8_t> head(4, 1);
  const std::vector<uint8_t> tail(12, 2);
  Status sent = InternalError("not run");
  Spawn(rig.sim, SendInto(&ring, head, tail, &sent));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(sent.ok());
  ASSERT_TRUE(received.ok());
  std::vector<uint8_t> expected(head.size() + tail.size(), 2);
  std::fill_n(expected.begin(), head.size(), 1);
  EXPECT_EQ(message, expected);
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
  Spawn(rig.sim, SendInto(&ring, payload, {}, &status));
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
  std::vector<uint8_t> message;
  Status result = InternalError("not run");
  Spawn(rig.sim, ReceiveInto(&ring, &message, &result));
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

// Completion times of each Send and each Receive of one sender/receiver
// pair, and the events RunUntilIdle processed.
struct Schedule {
  std::vector<SimTime> sent;
  std::vector<SimTime> received;
  uint64_t events = 0;
};

Task<void> TimedSends(Simulator* sim, SimRing* ring, Nanos start, int n,
                      size_t size, std::vector<SimTime>* done) {
  if (start > 0) {
    co_await Delay(start);
  }
  std::vector<uint8_t> payload(size, 0x5a);
  for (int i = 0; i < n; ++i) {
    CHECK_OK(co_await ring->Send(payload));
    done->push_back(sim->now());
  }
}

Task<void> TimedReceives(Simulator* sim, SimRing* ring, Nanos start, int n,
                         size_t size, std::vector<SimTime>* done) {
  if (start > 0) {
    co_await Delay(start);
  }
  std::vector<uint8_t> message;
  for (int i = 0; i < n; ++i) {
    CHECK_OK(co_await ring->Receive(&message));
    CHECK_EQ(message.size(), size);
    done->push_back(sim->now());
  }
}

// Sends `n` messages of `size` bytes, the sender starting at `send_start`
// and the receiver at `receive_start`.
Schedule RunPair(const SimRingConfig& config, Rig& rig, int n, size_t size,
                 Nanos send_start = 0, Nanos receive_start = 0) {
  SimRing ring(&rig.sim, &rig.fabric, rig.params, config);
  Schedule schedule;
  Spawn(rig.sim, TimedSends(&rig.sim, &ring, send_start, n, size,
                            &schedule.sent));
  Spawn(rig.sim, TimedReceives(&rig.sim, &ring, receive_start, n, size,
                               &schedule.received));
  schedule.events = rig.sim.RunUntilIdle();
  return schedule;
}

void ExpectSchedule(const Schedule& schedule, std::vector<SimTime> sent,
                    std::vector<SimTime> received, uint64_t events) {
  EXPECT_EQ(schedule.sent, sent);
  EXPECT_EQ(schedule.received, received);
  EXPECT_EQ(schedule.events, events);
}

// Pins the ring's schedule in every copy branch: how a message is charged
// may change its host cost, never these times or event counts.
TEST(SimRingTest, ScheduleIsPinnedInEveryCopyBranch) {
  {
    SCOPED_TRACE("local producer, host consumer on memcpy");
    Rig rig;
    ExpectSchedule(RunPair(rig.UpConfig(), rig, 3, 64), {1202, 2404, 3606},
                   {2798, 4394, 5990}, 20);
  }
  {
    SCOPED_TRACE("remote consumer, kMemcpy");
    Rig rig;
    SimRingConfig config = rig.UpConfig();
    config.copy_policy = CopyPolicy::kMemcpy;
    ExpectSchedule(RunPair(config, rig, 3, 4096), {1303, 2606, 3909},
                   {6258, 11213, 15568}, 19);
  }
  {
    SCOPED_TRACE("remote consumer, kDma");
    Rig rig;
    SimRingConfig config = rig.UpConfig();
    config.copy_policy = CopyPolicy::kDma;
    ExpectSchedule(RunPair(config, rig, 3, 4096), {1303, 2606, 3909},
                   {4236, 7169, 9502}, 22);
  }
  {
    SCOPED_TRACE("remote consumer, kAdaptive at the threshold: memcpy");
    Rig rig;
    ExpectSchedule(
        RunPair(rig.UpConfig(), rig, 3, rig.params.adaptive_threshold_host),
        {1226, 2452, 3678}, {3621, 6016, 7811}, 19);
  }
  {
    SCOPED_TRACE("remote consumer, kAdaptive past the threshold: DMA");
    Rig rig;
    ExpectSchedule(RunPair(rig.UpConfig(), rig, 3,
                           rig.params.adaptive_threshold_host + 1),
                   {1226, 2452, 3678}, {3647, 6068, 7889}, 22);
  }
  {
    SCOPED_TRACE("remote phi producer, kAdaptive DMA");
    Rig rig;
    SimRingConfig config = rig.UpConfig();
    config.capacity = KiB(256);
    config.master_device = rig.host;
    ExpectSchedule(RunPair(config, rig, 3, KiB(32)), {22304, 44608, 66912},
                   {23874, 45578, 68482}, 28);
  }
  {
    SCOPED_TRACE("sender blocked on a full ring");
    Rig rig;
    SimRingConfig config = rig.UpConfig();
    config.capacity = KiB(4);
    ExpectSchedule(RunPair(config, rig, 6, 1000, 0, Microseconds(20)),
                   {1225, 2450, 3675, 4900, 24200, 26025},
                   {22375, 24150, 25925, 27700, 30075, 31850}, 34);
  }
  {
    SCOPED_TRACE("receiver polling an empty ring");
    Rig rig;
    ExpectSchedule(RunPair(rig.UpConfig(), rig, 3, 64, Microseconds(20), 0),
                   {21202, 22404, 23606}, {22798, 24394, 25990}, 21);
  }
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
