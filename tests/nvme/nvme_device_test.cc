#include "src/nvme/nvme_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/base/fault.h"
#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  DeviceId phi_far = fabric.AddDevice(DeviceType::kPhi, 1, "mic1");
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu{&sim, host, 48, 1.0, "host-cpu"};
  NvmeDevice nvme{&sim, &fabric, params, nvme_id, MiB(64), &host_cpu};
};

NvmeCommand MakeRead(uint64_t lba, uint32_t nblocks, MemRef target) {
  return NvmeCommand{NvmeCommand::Op::kRead, lba, nblocks, target};
}
NvmeCommand MakeWrite(uint64_t lba, uint32_t nblocks, MemRef target) {
  return NvmeCommand{NvmeCommand::Op::kWrite, lba, nblocks, target};
}

TEST(NvmeDeviceTest, WriteThenReadRoundtrip) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  DeviceBuffer src(rig.host, bs * 4);
  Prng prng(1);
  for (auto& b : src.Span(0, src.size())) {
    b = static_cast<uint8_t>(prng.Next());
  }
  Status ws = RunSim(rig.sim, rig.nvme.SubmitOne(
                                  MakeWrite(10, 4, MemRef::Of(src)),
                                  &rig.host_cpu));
  ASSERT_TRUE(ws.ok()) << ws.ToString();

  DeviceBuffer dst(rig.host, bs * 4);
  Status rs = RunSim(rig.sim, rig.nvme.SubmitOne(
                                  MakeRead(10, 4, MemRef::Of(dst)),
                                  &rig.host_cpu));
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), bs * 4), 0);
}

TEST(NvmeDeviceTest, ValidationRejectsBadCommands) {
  Rig rig;
  DeviceBuffer buf(rig.host, rig.nvme.block_size());
  // Zero length.
  EXPECT_EQ(RunSim(rig.sim, rig.nvme.SubmitOne(
                                MakeRead(0, 0, MemRef::Of(buf)),
                                &rig.host_cpu))
                .code(),
            ErrorCode::kInvalidArgument);
  // Beyond capacity.
  EXPECT_EQ(RunSim(rig.sim, rig.nvme.SubmitOne(
                                MakeRead(rig.nvme.block_count(), 1,
                                         MemRef::Of(buf)),
                                &rig.host_cpu))
                .code(),
            ErrorCode::kOutOfRange);
  // Target length mismatch.
  EXPECT_EQ(RunSim(rig.sim, rig.nvme.SubmitOne(
                                MakeRead(0, 2, MemRef::Of(buf)),
                                &rig.host_cpu))
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(NvmeDeviceTest, LargeReadHitsFlashBandwidthCeiling) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  uint32_t nblocks = static_cast<uint32_t>(MiB(32) / bs);
  DeviceBuffer dst(rig.host, MiB(32));
  RunSim(rig.sim, rig.nvme.SubmitOne(MakeRead(0, nblocks, MemRef::Of(dst)),
                                     &rig.host_cpu));
  double gbps = RateBps(MiB(32), rig.sim.now());
  // Should be close to (and below) the 2.4 GB/s flash read ceiling.
  EXPECT_GT(gbps, GBps(2.0));
  EXPECT_LE(gbps, GBps(2.4));
}

TEST(NvmeDeviceTest, WritesAreSlowerThanReads) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  uint32_t nblocks = static_cast<uint32_t>(MiB(16) / bs);
  DeviceBuffer buf(rig.host, MiB(16));

  Rig read_rig;
  DeviceBuffer rbuf(read_rig.host, MiB(16));
  RunSim(read_rig.sim,
         read_rig.nvme.SubmitOne(MakeRead(0, nblocks, MemRef::Of(rbuf)),
                                 &read_rig.host_cpu));
  Nanos read_time = read_rig.sim.now();

  RunSim(rig.sim, rig.nvme.SubmitOne(MakeWrite(0, nblocks, MemRef::Of(buf)),
                                     &rig.host_cpu));
  Nanos write_time = rig.sim.now();
  // 1.2 GB/s vs 2.4 GB/s => ~2x.
  EXPECT_NEAR(static_cast<double>(write_time) / read_time, 2.0, 0.35);
}

TEST(NvmeDeviceTest, P2pReadLandsInPhiMemory) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  // Seed flash directly.
  auto flash = rig.nvme.RawFlash();
  for (uint32_t i = 0; i < bs; ++i) {
    flash[i] = static_cast<uint8_t>(i * 7);
  }
  DeviceBuffer phi_buf(rig.phi, bs);
  Status status = RunSim(rig.sim, rig.nvme.SubmitOne(
                                      MakeRead(0, 1, MemRef::Of(phi_buf)),
                                      &rig.host_cpu));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(std::memcmp(phi_buf.data(), flash.data(), bs), 0);
}

TEST(NvmeDeviceTest, CrossNumaP2pIsDramaticallySlower) {
  // The Fig. 1(a) effect at the device level.
  Rig near_rig;
  uint32_t nblocks = static_cast<uint32_t>(MiB(8) / 4096);
  DeviceBuffer near_buf(near_rig.phi, MiB(8));
  RunSim(near_rig.sim,
         near_rig.nvme.SubmitOne(MakeRead(0, nblocks, MemRef::Of(near_buf)),
                                 &near_rig.host_cpu));
  Nanos near_time = near_rig.sim.now();

  Rig far_rig;
  DeviceBuffer far_buf(far_rig.phi_far, MiB(8));
  RunSim(far_rig.sim,
         far_rig.nvme.SubmitOne(MakeRead(0, nblocks, MemRef::Of(far_buf)),
                                &far_rig.host_cpu));
  Nanos far_time = far_rig.sim.now();

  // 2.4 GB/s vs 300 MB/s => ~8x.
  EXPECT_GT(static_cast<double>(far_time) / near_time, 5.0);
  double far_bw = RateBps(MiB(8), far_time);
  EXPECT_LT(far_bw, MBps(310));
}

TEST(NvmeDeviceTest, CoalescingReducesDoorbellsAndInterrupts) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  DeviceBuffer buf(rig.host, bs * 8);
  std::vector<NvmeCommand> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(MakeRead(i, 1, MemRef::Of(buf, i * bs, bs)));
  }
  RunSim(rig.sim, rig.nvme.Submit(batch, /*coalesce=*/true, &rig.host_cpu));
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u);
  EXPECT_EQ(rig.nvme.commands_completed(), 8u);

  RunSim(rig.sim, rig.nvme.Submit(batch, /*coalesce=*/false, &rig.host_cpu));
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u + 8u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u + 8u);
}

TEST(NvmeDeviceTest, CoalescedBatchIsFasterThanPerCommand) {
  uint32_t bs = 4096;
  std::vector<NvmeCommand> batch;
  Nanos coalesced_time;
  Nanos stock_time;
  {
    Rig rig;
    DeviceBuffer buf(rig.host, bs * 32);
    batch.clear();
    for (int i = 0; i < 32; ++i) {
      batch.push_back(MakeRead(i, 1, MemRef::Of(buf, i * bs, bs)));
    }
    RunSim(rig.sim, rig.nvme.Submit(batch, true, &rig.host_cpu));
    coalesced_time = rig.sim.now();
  }
  {
    Rig rig;
    DeviceBuffer buf(rig.host, bs * 32);
    batch.clear();
    for (int i = 0; i < 32; ++i) {
      batch.push_back(MakeRead(i, 1, MemRef::Of(buf, i * bs, bs)));
    }
    RunSim(rig.sim, rig.nvme.Submit(batch, false, &rig.host_cpu));
    stock_time = rig.sim.now();
  }
  EXPECT_LT(coalesced_time, stock_time);
}

TEST(NvmeDeviceTest, QueueDepthBoundsConcurrency) {
  Rig rig;
  uint32_t bs = rig.nvme.block_size();
  int n = rig.params.nvme_queue_depth * 2;
  DeviceBuffer buf(rig.host, static_cast<size_t>(n) * bs);
  std::vector<NvmeCommand> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(MakeRead(i, 1, MemRef::Of(buf, uint64_t{static_cast<uint32_t>(i)} * bs, bs)));
  }
  Status status =
      RunSim(rig.sim, rig.nvme.Submit(batch, true, &rig.host_cpu));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(rig.nvme.commands_completed(), static_cast<uint64_t>(n));
}

TEST(NvmeDeviceTest, NeverWrittenBlocksReadAsZerosOnLargeDevice) {
  // A device larger than any Machine default: its never-written blocks,
  // including ones a power cut rolled back, read back as zeros.
  Rig rig;
  DeviceId big_id = rig.fabric.AddDevice(DeviceType::kNvme, 0, "nvme1");
  NvmeDevice big(&rig.sim, &rig.fabric, rig.params, big_id, GiB(4),
                 &rig.host_cpu);
  uint32_t bs = big.block_size();
  constexpr uint32_t kBlocks = 16;
  auto read_is_zero = [&](uint64_t lba) {
    DeviceBuffer dst(rig.host, kBlocks * bs);
    std::fill_n(dst.data(), dst.size(), 0xab);
    Status status = RunSim(
        rig.sim, big.SubmitOne(MakeRead(lba, kBlocks, MemRef::Of(dst)),
                               &rig.host_cpu));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return std::all_of(dst.data(), dst.data() + dst.size(),
                       [](uint8_t b) { return b == 0; });
  };
  uint64_t last = big.block_count() - kBlocks;
  for (uint64_t lba : {uint64_t{0}, big.block_count() / 2, last}) {
    EXPECT_TRUE(read_is_zero(lba)) << "lba " << lba;
  }

  // Every 2nd write cuts power: the first write to a never-written range
  // is acknowledged but still volatile, the second one fires the cut and
  // the rollback restores both ranges' zeros.
  Faults().DisarmAll();
  ASSERT_TRUE(Faults().Arm("nvme.powercut", FaultSpec::EveryNth(2)).ok());
  DeviceBuffer src(rig.host, kBlocks * bs);
  std::fill_n(src.data(), src.size(), 0x5a);
  uint64_t first = big.block_count() / 4;
  Status acked = RunSim(rig.sim, big.SubmitOne(
                                     MakeWrite(first, kBlocks,
                                               MemRef::Of(src)),
                                     &rig.host_cpu));
  ASSERT_TRUE(acked.ok()) << acked.ToString();
  EXPECT_EQ(big.RawFlash()[first * bs], 0x5a);
  Status cut = RunSim(rig.sim, big.SubmitOne(
                                   MakeWrite(last, kBlocks, MemRef::Of(src)),
                                   &rig.host_cpu));
  Faults().DisarmAll();
  EXPECT_FALSE(cut.ok());
  ASSERT_TRUE(big.crashed());
  big.PowerCycle();
  EXPECT_TRUE(read_is_zero(first));
  EXPECT_TRUE(read_is_zero(last));
}

}  // namespace
}  // namespace solros
