// SolrosFS running over the simulated NVMe device: end-to-end integrity
// plus device-level accounting (doorbells, interrupts, P2P targets).
#include "src/fs/nvme_block_store.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/solros_fs.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
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
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu{&sim, host, 48, 1.0, "host-cpu"};
  NvmeDevice nvme{&sim, &fabric, params, nvme_id, MiB(256), &host_cpu};
  NvmeBlockStore store{&nvme, &host_cpu};
};

TEST(NvmeBlockStoreTest, SpanReadWriteRoundtrip) {
  Rig rig;
  std::vector<uint8_t> data(4096 * 3);
  Prng prng(2);
  for (auto& b : data) {
    b = static_cast<uint8_t>(prng.Next());
  }
  CHECK_OK(RunSim(rig.sim, rig.store.Write(10, 3, data)));
  std::vector<uint8_t> out(data.size());
  CHECK_OK(RunSim(rig.sim, rig.store.Read(10, 3, out)));
  EXPECT_EQ(out, data);
  EXPECT_GT(rig.sim.now(), 0u);  // time actually passed
}

TEST(NvmeBlockStoreTest, VectoredRunsDmaOnPlainMemory) {
  Rig rig;
  // Three scattered runs over plain host vectors, no DeviceBuffer anywhere:
  // the commands name the vectors' bytes directly.
  const std::vector<uint64_t> lbas = {5, 900, 61};
  const std::vector<uint32_t> counts = {2, 1, 3};
  std::vector<std::vector<uint8_t>> in(lbas.size());
  std::vector<std::vector<uint8_t>> out(lbas.size());
  std::vector<ConstBlockRun> writes;
  std::vector<BlockRun> reads;
  Prng prng(6);
  for (size_t i = 0; i < lbas.size(); ++i) {
    in[i].resize(uint64_t{counts[i]} * 4096);
    for (auto& b : in[i]) {
      b = static_cast<uint8_t>(prng.Next());
    }
    out[i].resize(in[i].size());
    writes.push_back(ConstBlockRun{lbas[i], counts[i], in[i]});
    reads.push_back(BlockRun{lbas[i], counts[i], out[i]});
  }
  CHECK_OK(RunSim(rig.sim, rig.store.WriteV(writes, /*coalesce=*/true)));
  EXPECT_EQ(rig.nvme.commands_completed(), 3u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u);
  for (size_t i = 0; i < lbas.size(); ++i) {
    EXPECT_EQ(std::memcmp(rig.nvme.RawFlash().data() + lbas[i] * 4096,
                          in[i].data(), in[i].size()),
              0)
        << "run " << i;
  }
  CHECK_OK(RunSim(rig.sim, rig.store.ReadV(reads, /*coalesce=*/true)));
  EXPECT_EQ(rig.nvme.commands_completed(), 6u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 2u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 2u);
  EXPECT_EQ(out, in);
}

TEST(NvmeBlockStoreTest, ReadExtentsIntoPhiMemoryIsP2p) {
  Rig rig;
  // Seed two disjoint disk extents.
  Prng prng(3);
  auto flash = rig.nvme.RawFlash();
  for (size_t i = 0; i < KiB(64); ++i) {
    flash[i] = static_cast<uint8_t>(prng.Next());
    flash[MiB(1) + i] = static_cast<uint8_t>(prng.Next());
  }
  std::vector<FsExtent> extents = {
      {0, 16, 0},                         // blocks 0..15
      {MiB(1) / 4096, 16, 0},             // blocks at 1 MiB
  };
  DeviceBuffer target(rig.phi, KiB(128));
  CHECK_OK(RunSim(rig.sim, rig.store.ReadExtents(extents,
                                                 MemRef::Of(target),
                                                 /*coalesce=*/true)));
  EXPECT_EQ(std::memcmp(target.data(), flash.data(), KiB(64)), 0);
  EXPECT_EQ(std::memcmp(target.data() + KiB(64), flash.data() + MiB(1),
                        KiB(64)),
            0);
  // The whole vector cost one doorbell and one interrupt (§5).
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u);
}

TEST(NvmeBlockStoreTest, ExtentTargetLengthMismatchRejected) {
  Rig rig;
  DeviceBuffer target(rig.phi, KiB(4));
  std::vector<FsExtent> extents = {{0, 2, 0}};  // 8 KiB
  EXPECT_EQ(RunSim(rig.sim, rig.store.ReadExtents(extents,
                                                  MemRef::Of(target), true))
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(NvmeBlockStoreTest, WriteExtentsFromPhiMemory) {
  Rig rig;
  DeviceBuffer source(rig.phi, KiB(32));
  Prng prng(4);
  for (auto& b : source.Span(0, source.size())) {
    b = static_cast<uint8_t>(prng.Next());
  }
  std::vector<FsExtent> extents = {{100, 8, 0}};
  CHECK_OK(RunSim(rig.sim, rig.store.WriteExtents(extents,
                                                  MemRef::Of(source), true)));
  EXPECT_EQ(std::memcmp(rig.nvme.RawFlash().data() + 100 * 4096,
                        source.data(), KiB(32)),
            0);
}

TEST(NvmeBlockStoreTest, SolrosFsOverNvmeEndToEnd) {
  Rig rig;
  SolrosFs fs(&rig.store, &rig.sim);
  CHECK_OK(RunSim(rig.sim, fs.Format(256)));
  auto ino = RunSim(rig.sim, fs.Create("/data.bin"));
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> data(MiB(4));
  Prng prng(5);
  for (auto& b : data) {
    b = static_cast<uint8_t>(prng.Next());
  }
  auto written = RunSim(rig.sim, fs.WriteAt(*ino, 0, data));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, data.size());

  std::vector<uint8_t> out(data.size());
  auto read = RunSim(rig.sim, fs.ReadAt(*ino, 0, out));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);

  // Fiemap extents feed the P2P path: pull the same file straight into Phi
  // memory and verify against the FS-read content.
  auto extents = RunSim(rig.sim, fs.Fiemap(*ino, 0, data.size()));
  ASSERT_TRUE(extents.ok());
  uint64_t total_blocks = 0;
  for (const FsExtent& e : *extents) {
    total_blocks += e.len;
  }
  DeviceBuffer phi_buf(rig.phi, total_blocks * 4096);
  CHECK_OK(RunSim(rig.sim, rig.store.ReadExtents(*extents,
                                                 MemRef::Of(phi_buf), true)));
  EXPECT_EQ(std::memcmp(phi_buf.data(), data.data(), data.size()), 0);

  // Remount from the same flash and re-verify (persistence through NVMe).
  CHECK_OK(RunSim(rig.sim, fs.Unmount()));
  SolrosFs fs2(&rig.store, &rig.sim);
  CHECK_OK(RunSim(rig.sim, fs2.Mount()));
  auto again = RunSim(rig.sim, fs2.Lookup("/data.bin"));
  ASSERT_TRUE(again.ok());
  std::vector<uint8_t> out2(data.size());
  auto n2 = RunSim(rig.sim, fs2.ReadAt(*again, 0, out2));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(out2, data);
}

}  // namespace
}  // namespace solros
