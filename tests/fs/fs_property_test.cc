// Property tests for SolrosFS against an in-memory reference model:
// randomized namespace + data operation sequences, fiemap coverage
// invariants, allocator accounting, remount invariance, and the same
// sequence giving the same bytes under every FS configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/fault.h"
#include "src/base/prng.h"
#include "src/base/sharding.h"
#include "src/base/units.h"
#include "src/core/machine.h"
#include "src/fs/block_store.h"
#include "src/fs/fsck.h"
#include "src/fs/nvme_block_store.h"
#include "src/fs/solros_fs.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

struct ModelFile {
  uint64_t ino = 0;
  std::vector<uint8_t> content;
};

class FsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsPropertyTest, RandomOpsMatchReferenceModel) {
  uint64_t seed = GetParam();
  Simulator sim;
  MemBlockStore store(kFsBlockSize, 8192);  // 32 MiB volume
  SolrosFs fs(&store, &sim);
  CHECK_OK(RunSim(sim, fs.Format(128)));

  Prng prng(seed);
  std::map<std::string, ModelFile> model;
  int created = 0;

  for (int step = 0; step < 300; ++step) {
    double dice = prng.NextDouble();
    if (dice < 0.25) {
      // Create a new file.
      std::string path = "/f" + std::to_string(created++);
      auto ino = RunSim(sim, fs.Create(path));
      ASSERT_TRUE(ino.ok()) << path;
      model[path] = ModelFile{*ino, {}};
    } else if (dice < 0.55 && !model.empty()) {
      // Random write (possibly extending).
      auto it = model.begin();
      std::advance(it, prng.NextBelow(model.size()));
      ModelFile& file = it->second;
      uint64_t offset = prng.NextBelow(KiB(48));
      uint64_t len = prng.NextInRange(1, KiB(12));
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(prng.Next());
      }
      auto written = RunSim(sim, fs.WriteAt(file.ino, offset, data));
      ASSERT_TRUE(written.ok());
      ASSERT_EQ(*written, len);
      if (file.content.size() < offset + len) {
        file.content.resize(offset + len, 0);
      }
      std::copy(data.begin(), data.end(), file.content.begin() + offset);
    } else if (dice < 0.75 && !model.empty()) {
      // Random read: must match the model exactly (including EOF clamp).
      auto it = model.begin();
      std::advance(it, prng.NextBelow(model.size()));
      const ModelFile& file = it->second;
      uint64_t offset = prng.NextBelow(KiB(64));
      uint64_t len = prng.NextInRange(1, KiB(16));
      std::vector<uint8_t> out(len);
      auto n = RunSim(sim, fs.ReadAt(file.ino, offset, out));
      ASSERT_TRUE(n.ok());
      uint64_t expect_n =
          offset >= file.content.size()
              ? 0
              : std::min<uint64_t>(len, file.content.size() - offset);
      ASSERT_EQ(*n, expect_n);
      if (expect_n > 0) {
        ASSERT_EQ(std::memcmp(out.data(), file.content.data() + offset,
                              expect_n),
                  0)
            << "step " << step;
      }
    } else if (dice < 0.85 && !model.empty()) {
      // Truncate (shrink or grow).
      auto it = model.begin();
      std::advance(it, prng.NextBelow(model.size()));
      ModelFile& file = it->second;
      uint64_t new_size = prng.NextBelow(KiB(64));
      CHECK_OK(RunSim(sim, fs.Truncate(file.ino, new_size)));
      file.content.resize(new_size, 0);
    } else if (!model.empty()) {
      // Unlink.
      auto it = model.begin();
      std::advance(it, prng.NextBelow(model.size()));
      CHECK_OK(RunSim(sim, fs.Unlink(it->first)));
      model.erase(it);
    }
  }

  // Final verification sweep, then remount and verify again.
  auto verify_all = [&](SolrosFs& target) {
    for (const auto& [path, file] : model) {
      auto ino = RunSim(sim, target.Lookup(path));
      ASSERT_TRUE(ino.ok()) << path;
      auto stat = RunSim(sim, target.StatInode(*ino));
      ASSERT_TRUE(stat.ok());
      ASSERT_EQ(stat->size, file.content.size()) << path;
      std::vector<uint8_t> out(file.content.size());
      if (!out.empty()) {
        auto n = RunSim(sim, target.ReadAt(*ino, 0, out));
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, file.content.size());
        ASSERT_EQ(std::memcmp(out.data(), file.content.data(), out.size()),
                  0)
            << path;
      }
    }
  };
  verify_all(fs);
  CHECK_OK(RunSim(sim, fs.Unmount()));
  SolrosFs fs2(&store, &sim);
  CHECK_OK(RunSim(sim, fs2.Mount()));
  verify_all(fs2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(FsInvariantTest, FiemapExtentsExactlyCoverFileBlocks) {
  Simulator sim;
  MemBlockStore store(kFsBlockSize, 8192);
  SolrosFs fs(&store, &sim);
  CHECK_OK(RunSim(sim, fs.Format(64)));
  Prng prng(5);
  // Build a fragmented file by interleaving two files' growth.
  auto a = RunSim(sim, fs.Create("/a"));
  auto b = RunSim(sim, fs.Create("/b"));
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<uint8_t> chunk(KiB(16), 0x5a);
  for (int i = 0; i < 20; ++i) {
    CHECK_OK(RunSim(sim, fs.WriteAt(*a, i * chunk.size(), chunk)));
    CHECK_OK(RunSim(sim, fs.WriteAt(*b, i * chunk.size(), chunk)));
  }
  auto stat = RunSim(sim, fs.StatInode(*a));
  ASSERT_TRUE(stat.ok());
  EXPECT_GT(stat->extent_count, 1u) << "fragmentation expected";

  auto extents = RunSim(sim, fs.Fiemap(*a, 0, stat->size));
  ASSERT_TRUE(extents.ok());
  // Invariants: total blocks cover the file; no overlap; all within the
  // data region.
  uint64_t covered = 0;
  std::set<uint64_t> seen;
  for (const FsExtent& e : *extents) {
    ASSERT_GT(e.len, 0u);
    for (uint64_t blk = e.start; blk < e.start + e.len; ++blk) {
      ASSERT_TRUE(seen.insert(blk).second) << "overlapping extent block";
      ASSERT_LT(blk, fs.total_blocks());
    }
    covered += e.len;
  }
  EXPECT_EQ(covered, (stat->size + kFsBlockSize - 1) / kFsBlockSize);
}

TEST(FsInvariantTest, FreeBlockAccountingIsConserved) {
  Simulator sim;
  MemBlockStore store(kFsBlockSize, 4096);
  SolrosFs fs(&store, &sim);
  CHECK_OK(RunSim(sim, fs.Format(64)));
  // Force the root directory block to exist.
  ASSERT_TRUE(RunSim(sim, fs.Create("/pin")).ok());
  uint64_t baseline = fs.free_blocks();
  Prng prng(9);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::string> paths;
    for (int i = 0; i < 5; ++i) {
      std::string path = "/r" + std::to_string(round) + "_" +
                         std::to_string(i);
      auto ino = RunSim(sim, fs.Create(path));
      ASSERT_TRUE(ino.ok());
      std::vector<uint8_t> data(prng.NextInRange(1, KiB(64)));
      CHECK_OK(RunSim(sim, fs.WriteAt(*ino, 0, data)));
      paths.push_back(path);
    }
    for (const std::string& path : paths) {
      CHECK_OK(RunSim(sim, fs.Unlink(path)));
    }
    // All data blocks must come back every round.
    ASSERT_EQ(fs.free_blocks(), baseline) << "round " << round;
  }
}

// Randomized ops through the full stack (stub -> proxy -> block store ->
// NVMe) while NVMe timeouts and DMA errors fire on deterministic every-Nth
// schedules, cross-checking against the in-memory model after every
// recovered operation. Every-Nth triggers keep the run reproducible and
// guarantee an immediate retry cannot re-hit the same fault.
class FaultedStackPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { Faults().DisarmAll(); }
  void TearDown() override { Faults().DisarmAll(); }
};

TEST_P(FaultedStackPropertyTest, RandomOpsUnderFaultsMatchReferenceModel) {
  uint64_t seed = GetParam();
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);

  CHECK_OK(Faults().Arm("nvme.cmd.timeout", FaultSpec::EveryNth(7)));
  CHECK_OK(Faults().Arm("hw.dma.error", FaultSpec::EveryNth(5)));

  Prng prng(seed);
  std::map<std::string, ModelFile> model;
  int created = 0;
  DeviceBuffer scratch(machine.phi_device(0), KiB(32));

  for (int step = 0; step < 120; ++step) {
    double dice = prng.NextDouble();
    if (dice < 0.2 || model.empty()) {
      std::string path = "/g" + std::to_string(created++);
      auto ino = RunSim(machine.sim(), stub.Create(path));
      if (!ino.ok() && ino.code() == ErrorCode::kAlreadyExists) {
        // At-least-once namespace retry observed its own first delivery.
        ino = RunSim(machine.sim(), stub.Open(path));
      }
      ASSERT_TRUE(ino.ok()) << path << ": " << ino.status().ToString();
      model[path] = ModelFile{*ino, {}};
      continue;
    }
    auto it = model.begin();
    std::advance(it, prng.NextBelow(model.size()));
    ModelFile& file = it->second;
    if (dice < 0.6) {
      // Write; odd offsets take the buffered/DMA path, aligned ones P2P.
      uint64_t offset = prng.NextBelow(KiB(48));
      uint64_t len = prng.NextInRange(1, KiB(8));
      std::span<uint8_t> data = scratch.Span(0, len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(prng.Next());
      }
      auto written = RunSim(machine.sim(),
                            stub.Write(file.ino, offset,
                                       MemRef::Of(scratch, 0, len)));
      ASSERT_TRUE(written.ok())
          << "step " << step << ": " << written.status().ToString();
      ASSERT_EQ(*written, len);
      if (file.content.size() < offset + len) {
        file.content.resize(offset + len, 0);
      }
      std::copy(data.begin(), data.end(), file.content.begin() + offset);
      // Cross-check right after the recovered write: the model bytes must
      // be on stable storage even if retries or degradation happened.
      DeviceBuffer readback(machine.phi_device(0), len);
      auto n = RunSim(machine.sim(),
                      stub.Read(file.ino, offset, MemRef::Of(readback)));
      ASSERT_TRUE(n.ok()) << "step " << step;
      ASSERT_EQ(*n, len);
      ASSERT_EQ(std::memcmp(readback.data(), file.content.data() + offset,
                            len),
                0)
          << "silent corruption after recovery, step " << step;
    } else if (dice < 0.85) {
      // Read an arbitrary window against the model (EOF clamp included).
      uint64_t offset = prng.NextBelow(KiB(56));
      uint64_t len = prng.NextInRange(1, KiB(8));
      DeviceBuffer out(machine.phi_device(0), len);
      auto n = RunSim(machine.sim(),
                      stub.Read(file.ino, offset, MemRef::Of(out)));
      ASSERT_TRUE(n.ok()) << "step " << step;
      uint64_t expect_n =
          offset >= file.content.size()
              ? 0
              : std::min<uint64_t>(len, file.content.size() - offset);
      ASSERT_EQ(*n, expect_n) << "step " << step;
      if (expect_n > 0) {
        ASSERT_EQ(
            std::memcmp(out.data(), file.content.data() + offset, expect_n),
            0)
            << "step " << step;
      }
    } else {
      auto unlinked = RunSim(machine.sim(), stub.Unlink(it->first));
      // At-least-once: a replayed unlink may find the name already gone.
      ASSERT_TRUE(unlinked.ok() ||
                  unlinked.code() == ErrorCode::kNotFound)
          << "step " << step << ": " << unlinked.ToString();
      model.erase(it);
    }
  }

  // The injected faults must actually have fired for this test to mean
  // anything.
  EXPECT_GT(Faults().GetPoint("nvme.cmd.timeout")->fires(), 0u);
  EXPECT_GT(Faults().GetPoint("hw.dma.error")->fires(), 0u);

  // Full final sweep with faults still armed.
  for (const auto& [path, file] : model) {
    if (file.content.empty()) {
      continue;
    }
    DeviceBuffer out(machine.phi_device(0), file.content.size());
    auto n = RunSim(machine.sim(), stub.Read(file.ino, 0, MemRef::Of(out)));
    ASSERT_TRUE(n.ok()) << path;
    ASSERT_EQ(*n, file.content.size());
    ASSERT_EQ(std::memcmp(out.data(), file.content.data(), out.size()), 0)
        << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultedStackPropertyTest,
                         ::testing::Values(3u, 21u, 777u));

// --- Crash-replay determinism ----------------------------------------------
//
// Property: a crash cell is a pure function of (seed, cut ordinal). Running
// the same journaled workload with the same fault seed and the same
// every-Nth cut, then power-cycling and replaying, must produce a
// byte-identical device image and an identical fsck report. This is what
// makes every red cell of the crash matrix exactly reproducible.

struct CrashRunResult {
  std::vector<uint8_t> image;   // full post-replay flash
  std::string fsck;
  bool clean = false;
  bool fault_fired = false;
  uint64_t applied = 0;
  uint64_t discarded = 0;
};

CrashRunResult RunCrashCell(uint64_t seed, uint64_t nth) {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric(&sim, params);
  DeviceId host = fabric.HostDevice(0);
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu(&sim, host, 48, 1.0, "host-cpu");
  NvmeDevice nvme(&sim, &fabric, params, nvme_id, MiB(64), &host_cpu);
  NvmeBlockStore store(&nvme, &host_cpu);
  Faults().DisarmAll();
  store.set_volatile_write_cache(true);

  SolrosFs fs(&store, &sim);
  fs.set_journal_mode(JournalMode::kData);
  CHECK_OK(RunSim(sim, fs.Format(64, /*journal_blocks=*/64)));
  CHECK_OK(RunSim(sim, fs.Sync()));
  Faults().set_seed(seed);
  CHECK_OK(Faults().Arm("nvme.tornwrite", FaultSpec::EveryNth(nth)));

  Prng prng(seed);
  for (int step = 0; step < 50 && !nvme.crashed(); ++step) {
    std::string path = "/f" + std::to_string(prng.NextBelow(4));
    auto ino = RunSim(sim, fs.Lookup(path));
    if (!ino.ok()) {
      ino = RunSim(sim, fs.Create(path));
      if (!ino.ok()) {
        break;
      }
    }
    auto stat = RunSim(sim, fs.StatInode(*ino));
    if (!stat.ok()) {
      break;
    }
    uint64_t offset = prng.NextBelow(stat->size + 1);
    std::vector<uint8_t> data(prng.NextInRange(1, 2 * kFsBlockSize));
    for (auto& b : data) {
      b = static_cast<uint8_t>(prng.Next());
    }
    if (!RunSim(sim, fs.WriteAt(*ino, offset, data)).ok()) {
      break;
    }
  }
  CrashRunResult out;
  out.fault_fired = nvme.crashed();

  Faults().DisarmAll();
  nvme.PowerCycle();
  SolrosFs recovered(&store, &sim);
  CHECK_OK(RunSim(sim, recovered.Mount()));
  auto report = RunSim(sim, RunFsck(&store));
  CHECK_OK(report);

  out.image.assign(nvme.RawFlash().begin(), nvme.RawFlash().end());
  out.fsck = report->ToString();
  out.clean = report->clean();
  out.applied = recovered.last_replay().applied_txns;
  out.discarded = recovered.last_replay().discarded_txns;
  return out;
}

class CrashReplayDeterminismTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashReplayDeterminismTest, SameSeedAndCutGiveIdenticalImage) {
  const uint64_t nth = GetParam();
  CrashRunResult first = RunCrashCell(0xd15c0, nth);
  CrashRunResult second = RunCrashCell(0xd15c0, nth);

  ASSERT_TRUE(first.fault_fired) << "cut ordinal " << nth
                                 << " never landed; property is vacuous";
  EXPECT_TRUE(first.clean) << first.fsck;
  EXPECT_TRUE(first.image == second.image)
      << "post-replay images differ for identical (seed, cut)";
  EXPECT_EQ(first.fsck, second.fsck);
  EXPECT_EQ(first.applied, second.applied);
  EXPECT_EQ(first.discarded, second.discarded);
}

INSTANTIATE_TEST_SUITE_P(Cuts, CrashReplayDeterminismTest,
                         ::testing::Values(2u, 7u, 19u));

// --- Cross-config differential oracle --------------------------------------
//
// Shard count, journal mode and the P2P/buffered choice must never change
// what a file holds. One seeded sequence of create/write/read/truncate/
// fsync/unlink runs through a full Machine's FsStub in every cell of
// proxy_shards {1, 2, 4} x journal {off, metadata} x {P2P, buffered}; every
// read and the final bytes of every file must match the reference model.
// The model is a pure function of the seed, so each cell matching it means
// all cells match each other. Requests straddle block-group stripes (the
// stub splits them, one RPC per owning shard) and the cache is small, so
// the sequence crosses shards and drives eviction write-back and the
// free-path invalidations.

constexpr uint64_t kOracleMaxLength = KiB(24);

// (proxy_shards, journal mode, buffered).
using OracleCell = std::tuple<int, JournalMode, bool>;

std::string OracleCellName(const ::testing::TestParamInfo<OracleCell>& info) {
  return "Shards" + std::to_string(std::get<0>(info.param)) + "_" +
         JournalModeName(std::get<1>(info.param)) + "Journal" +
         (std::get<2>(info.param) ? "_Buffered" : "_P2p");
}

class FsConfigOracleTest : public ::testing::TestWithParam<OracleCell> {};

TEST_P(FsConfigOracleTest, FinalBytesMatchReferenceModel) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.proxy_shards = std::get<0>(GetParam());
  config.journal_mode = std::get<1>(GetParam());
  config.fs_options.cache_blocks = 128;  // 512 KiB, split across shards
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(std::get<2>(GetParam()));
  DeviceBuffer buf(machine.phi_device(0), MiB(1));
  auto run = [&](auto task) { return RunSim(machine.sim(), std::move(task)); };

  Prng prng(0x0dd5eed);
  std::map<std::string, ModelFile> model;
  for (int step = 0, created = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double dice = prng.NextDouble();
    if (dice < 0.1 || model.empty()) {
      std::string path = "/o" + std::to_string(created++);
      auto ino = run(stub.Create(path));
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      model[path] = ModelFile{*ino, {}};
      continue;
    }
    auto it = std::next(model.begin(), prng.NextBelow(model.size()));
    const uint64_t ino = it->second.ino;
    std::vector<uint8_t>& content = it->second.content;
    // Every op lands within kOracleMaxLength of a block-group stripe
    // boundary, where one request's blocks belong to two shards.
    uint64_t offset = kShardStripeBlocks * kFsBlockSize *
                          (1 + prng.NextBelow(2)) +
                      prng.NextBelow(2 * kOracleMaxLength) - kOracleMaxLength;
    uint64_t length = prng.NextInRange(1, kOracleMaxLength);
    // Half the reads and writes are block-aligned so they can take P2P.
    if (prng.NextBelow(2) == 0) {
      offset -= offset % kFsBlockSize;
      length = (length + kFsBlockSize - 1) / kFsBlockSize * kFsBlockSize;
    }
    if (dice < 0.5) {
      for (uint64_t i = 0; i < length; ++i) {
        buf.data()[i] = static_cast<uint8_t>(prng.Next());
      }
      auto n = run(stub.Write(ino, offset, MemRef::Of(buf, 0, length)));
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, length);
      content.resize(std::max<uint64_t>(content.size(), offset + length));
      std::memcpy(content.data() + offset, buf.data(), length);
    } else if (dice < 0.75) {
      auto n = run(stub.Read(ino, offset, MemRef::Of(buf, 0, length)));
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, offset >= content.size()
                        ? 0
                        : std::min<uint64_t>(length, content.size() - offset));
      ASSERT_TRUE(*n == 0 ||
                  std::memcmp(buf.data(), content.data() + offset, *n) == 0);
    } else if (dice < 0.85) {
      ASSERT_TRUE(run(stub.Truncate(ino, offset)).ok());
      content.resize(offset);
    } else if (dice < 0.93) {
      ASSERT_TRUE(run(stub.Fsync(ino)).ok());
    } else {
      ASSERT_TRUE(run(stub.Unlink(it->first)).ok());
      model.erase(it);
    }
  }
  ASSERT_GE(model.size(), 2u) << "the sequence should leave files behind";
  for (const auto& [path, file] : model) {
    auto stat = run(stub.Stat(path));
    ASSERT_TRUE(stat.ok()) << path << ": " << stat.status().ToString();
    ASSERT_EQ(stat->size, file.content.size()) << path;
    auto n = run(stub.Read(file.ino, 0, MemRef::Of(buf, 0, stat->size)));
    ASSERT_TRUE(n.ok() && *n == stat->size) << path;
    EXPECT_TRUE(stat->size == 0 ||
                std::memcmp(buf.data(), file.content.data(), stat->size) == 0)
        << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, FsConfigOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(JournalMode::kOff,
                                         JournalMode::kMetadata),
                       ::testing::Bool()),
    OracleCellName);

// --- Concurrent oracle -----------------------------------------------------
//
// The same cells with each phase's ops overlapping in time: four workers on
// two data planes write, read, truncate, unlink and fsync within
// kOracleMaxLength of stripe boundaries at once, with staggered starts, so
// a read's miss fill races a write or a free of the blocks it fetches. A
// file takes at most one mutation per phase, which keeps the model exact;
// in-phase reads are the racing fills and go unchecked. After each phase's
// barrier every touched range of every surviving file is read back and
// checked against the model.

constexpr int kOracleWorkers = 4;

struct OracleOp {
  FsOp op = FsOp::kRead;
  std::string path;
  uint64_t ino = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  Nanos start_delay = 0;
  FsStub* stub = nullptr;
  DeviceBuffer* buf = nullptr;
  Status status;
  bool done = false;
};

Task<void> RunOracleOp(OracleOp* op) {
  co_await Delay(op->start_delay);
  MemRef mem = MemRef::Of(*op->buf, 0, op->length);
  switch (op->op) {
    case FsOp::kWrite: {
      Result<uint64_t> n = co_await op->stub->Write(op->ino, op->offset, mem);
      op->status = n.status();
      if (n.ok() && *n != op->length) {
        op->status = IoError("short write");
      }
      break;
    }
    case FsOp::kRead: {
      // A racing fill: its bytes are checked after the barrier.
      Result<uint64_t> n = co_await op->stub->Read(op->ino, op->offset, mem);
      static_cast<void>(n);
      break;
    }
    case FsOp::kTruncate:
      op->status = co_await op->stub->Truncate(op->ino, op->offset);
      break;
    case FsOp::kUnlink:
      op->status = co_await op->stub->Unlink(op->path);
      break;
    default:
      op->status = co_await op->stub->Fsync(op->ino);
      break;
  }
  op->done = true;
}

class FsConcurrentOracleTest : public ::testing::TestWithParam<OracleCell> {};

TEST_P(FsConcurrentOracleTest, OverlappingPhasesMatchReferenceModel) {
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.proxy_shards = std::get<0>(GetParam());
  config.journal_mode = std::get<1>(GetParam());
  config.fs_options.cache_blocks = 128;  // 512 KiB, split across shards
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub* stubs[] = {&machine.fs_stub(0), &machine.fs_stub(1)};
  std::vector<std::unique_ptr<DeviceBuffer>> bufs;
  for (int w = 0; w < kOracleWorkers; ++w) {
    stubs[w % 2]->set_buffered(std::get<2>(GetParam()));
    bufs.push_back(std::make_unique<DeviceBuffer>(machine.phi_device(w % 2),
                                                  kOracleMaxLength));
  }
  auto run = [&](auto task) { return RunSim(machine.sim(), std::move(task)); };

  Prng prng(0xc0c0a);
  std::map<std::string, ModelFile> model;
  int created = 0;
  for (int phase = 0; phase < 150; ++phase) {
    SCOPED_TRACE("phase " + std::to_string(phase));
    while (model.size() < 3) {
      std::string path = "/c" + std::to_string(created++);
      auto ino = run(stubs[0]->Create(path));
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      model[path] = ModelFile{*ino, {}};
    }
    std::vector<OracleOp> ops(kOracleWorkers);
    std::set<std::string> mutated;
    for (int w = 0; w < kOracleWorkers; ++w) {
      OracleOp& op = ops[static_cast<size_t>(w)];
      op.stub = stubs[w % 2];
      op.buf = bufs[static_cast<size_t>(w)].get();
      op.start_delay = prng.NextBelow(40) * 1000;
      auto it = std::next(model.begin(), prng.NextBelow(model.size()));
      op.path = it->first;
      op.ino = it->second.ino;
      op.offset = kShardStripeBlocks * kFsBlockSize * (1 + prng.NextBelow(2)) +
                  prng.NextBelow(2 * kOracleMaxLength) - kOracleMaxLength;
      op.length = prng.NextInRange(1, kOracleMaxLength);
      if (prng.NextBelow(2) == 0) {
        op.offset -= op.offset % kFsBlockSize;
        op.length = (op.length + kFsBlockSize - 1) / kFsBlockSize * kFsBlockSize;
      }
      const double dice = prng.NextDouble();
      const bool unmutated = !mutated.contains(op.path);
      if (dice < 0.4 && unmutated) {
        op.op = FsOp::kWrite;
        for (uint64_t i = 0; i < op.length; ++i) {
          op.buf->data()[i] = static_cast<uint8_t>(prng.Next());
        }
      } else if (dice < 0.5 && unmutated) {
        op.op = FsOp::kTruncate;
      } else if (dice < 0.55 && unmutated) {
        op.op = FsOp::kUnlink;
      } else if (dice < 0.6) {
        op.op = FsOp::kFsync;
      }
      if (op.op != FsOp::kRead && op.op != FsOp::kFsync) {
        mutated.insert(op.path);
      }
    }
    for (OracleOp& op : ops) {
      Spawn(machine.sim(), RunOracleOp(&op));
    }
    machine.sim().RunUntilIdle();

    for (const OracleOp& op : ops) {
      ASSERT_TRUE(op.done);
      ASSERT_TRUE(op.status.ok()) << op.status.ToString();
      auto it = model.find(op.path);
      if (op.op == FsOp::kWrite) {
        std::vector<uint8_t>& content = it->second.content;
        content.resize(std::max<uint64_t>(content.size(),
                                          op.offset + op.length));
        std::memcpy(content.data() + op.offset, op.buf->data(), op.length);
      } else if (op.op == FsOp::kTruncate) {
        it->second.content.resize(op.offset);
      } else if (op.op == FsOp::kUnlink) {
        model.erase(it);
      }
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      const OracleOp& op = ops[i];
      auto it = model.find(op.path);
      if (it == model.end()) {
        continue;
      }
      const std::vector<uint8_t>& content = it->second.content;
      DeviceBuffer& buf = *bufs[i];
      auto n = run(stubs[(phase + i) % 2]->Read(
          it->second.ino, op.offset, MemRef::Of(buf, 0, op.length)));
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, op.offset >= content.size()
                        ? 0
                        : std::min<uint64_t>(op.length,
                                             content.size() - op.offset));
      ASSERT_TRUE(*n == 0 || std::memcmp(buf.data(),
                                         content.data() + op.offset, *n) == 0)
          << op.path << " [" << op.offset << ", +" << *n << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, FsConcurrentOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(JournalMode::kOff,
                                         JournalMode::kMetadata),
                       ::testing::Bool()),
    OracleCellName);

}  // namespace
}  // namespace solros
