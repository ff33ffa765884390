// Cross-shard coherence of the sharded control plane.
//
// The control plane partitions FS traffic across per-core proxy shards by
// inode range with block-group striping; the only shared structures are
// the shard coordinator (free-path invalidation and the fsync barrier) and
// the one SolrosFs every shard maps file ranges through. These tests drive
// real workloads through the data-plane stubs (which route each RPC to its
// shard) and assert the sharing protocol holds: writes on one shard are
// visible to reads on another, a fragmented file remaps correctly across
// shards, the coherence survives rpc.*/nvme.* fault injection, and a power
// cut mid-workload at shards=2 still recovers to an fsck-clean image.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/prng.h"
#include "src/base/sharding.h"
#include "src/base/units.h"
#include "src/core/machine.h"
#include "src/fs/fsck.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

constexpr uint64_t kChunk = KiB(4);

MachineConfig ShardedConfig(int shards, int num_phis = 2) {
  MachineConfig config;
  config.num_phis = num_phis;
  config.nvme_capacity = MiB(256);
  config.proxy_shards = shards;
  config.fs_options.cache_blocks = 4096;  // 16 MiB split across shards
  config.enable_network = false;
  return config;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng prng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(prng.Next());
  }
  return out;
}

// Writes `data` through `stub` in 4KB chunks.
void WriteChunked(Machine& machine, FsStub& stub, DeviceId device,
                  uint64_t ino, const std::vector<uint8_t>& data) {
  DeviceBuffer buf(device, kChunk);
  for (uint64_t off = 0; off < data.size(); off += kChunk) {
    std::memcpy(buf.data(), data.data() + off, kChunk);
    auto written =
        RunSim(machine.sim(), stub.Write(ino, off, MemRef::Of(buf)));
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    ASSERT_EQ(*written, kChunk);
  }
}

void ExpectReadsBack(Machine& machine, FsStub& stub, DeviceId device,
                     uint64_t ino, const std::vector<uint8_t>& data) {
  DeviceBuffer buf(device, kChunk);
  for (uint64_t off = 0; off < data.size(); off += kChunk) {
    auto n = RunSim(machine.sim(), stub.Read(ino, off, MemRef::Of(buf)));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, kChunk);
    ASSERT_EQ(std::memcmp(buf.data(), data.data() + off, kChunk), 0)
        << "mismatch at offset " << off;
  }
}

TEST(ShardPartitionTest, DegeneratesToShardZeroUnsharded) {
  EXPECT_EQ(ShardOfInode(123, 1), 0);
  EXPECT_EQ(ShardOfFileRange(7, MiB(3), kChunk, 1), 0);
  EXPECT_EQ(ShardOfPath("/any", 1), 0);
  EXPECT_EQ(ShardLabel("fs.proxy", 0, 1), "fs.proxy");
  EXPECT_EQ(ShardLabel("fs.proxy", 2, 4), "fs.proxy[2]");
}

TEST(ShardPartitionTest, FileRangeStripingCoversAllShards) {
  // Sequential 256KB block groups of one file must walk every shard.
  const int shards = 4;
  std::vector<bool> hit(shards, false);
  for (uint64_t stripe = 0; stripe < 8; ++stripe) {
    uint64_t offset = stripe * kShardStripeBlocks * kChunk;
    hit[static_cast<size_t>(ShardOfFileRange(42, offset, kChunk, shards))] =
        true;
  }
  for (int k = 0; k < shards; ++k) {
    EXPECT_TRUE(hit[static_cast<size_t>(k)]) << "shard " << k << " unused";
  }
  // Offsets within one block group stay on one shard (stream locality).
  int first = ShardOfFileRange(42, 0, kChunk, shards);
  for (uint64_t b = 1; b < kShardStripeBlocks; ++b) {
    EXPECT_EQ(ShardOfFileRange(42, b * kChunk, kChunk, shards), first);
  }
}

TEST(ShardCoherenceTest, CrossShardWriteReadUnlink) {
  Machine machine(ShardedConfig(2));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& writer = machine.fs_stub(0);
  FsStub& reader = machine.fs_stub(1);
  writer.set_buffered(true);
  reader.set_buffered(true);

  auto ino = RunSim(machine.sim(), writer.Create("/shared.bin"));
  ASSERT_TRUE(ino.ok());
  // 1 MiB = four 256KB block groups: two per shard at shards=2.
  auto data = RandomBytes(MiB(1), 0xabcd);
  WriteChunked(machine, writer, machine.phi_device(0), *ino, data);
  ExpectReadsBack(machine, reader, machine.phi_device(1), *ino, data);

  // The chunked traffic must actually have exercised both shards.
  EXPECT_GT(machine.fs_proxy_shard(0).stats().requests, 0u);
  EXPECT_GT(machine.fs_proxy_shard(1).stats().requests, 0u);

  // Unlink from the other data plane; the name must disappear everywhere.
  ASSERT_TRUE(RunSim(machine.sim(), reader.Unlink("/shared.bin")).ok());
  auto stat = RunSim(machine.sim(), writer.Stat("/shared.bin"));
  EXPECT_FALSE(stat.ok());

  // Re-create and reuse the name across shards.
  auto ino2 = RunSim(machine.sim(), writer.Create("/shared.bin"));
  ASSERT_TRUE(ino2.ok());
  auto data2 = RandomBytes(KiB(512), 0xbeef);
  WriteChunked(machine, writer, machine.phi_device(0), *ino2, data2);
  ExpectReadsBack(machine, reader, machine.phi_device(1), *ino2, data2);

  // One unchunked 1 MiB write and read at shards=4: the stub splits each at
  // stripe boundaries, so every stripe's piece reaches its owner, and each
  // block ends up cached only by that owner.
  Machine wide(ShardedConfig(4));
  CHECK_OK(RunSim(wide.sim(), wide.FormatFs()));
  FsStub& stub = wide.fs_stub(0);
  stub.set_buffered(true);
  auto ino3 = RunSim(wide.sim(), stub.Create("/wide.bin"));
  ASSERT_TRUE(ino3.ok());
  std::vector<uint64_t> requests(4);
  for (int k = 0; k < 4; ++k) {
    requests[k] = wide.fs_proxy_shard(k).stats().requests;
  }
  auto data3 = RandomBytes(MiB(1), 0xf00d);
  DeviceBuffer src(wide.phi_device(0), data3.size());
  std::memcpy(src.data(), data3.data(), data3.size());
  auto written = RunSim(wide.sim(), stub.Write(*ino3, 0, MemRef::Of(src)));
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, data3.size());
  DeviceBuffer dst(wide.phi_device(1), data3.size());
  auto read = RunSim(wide.sim(), wide.fs_stub(1).Read(*ino3, 0,
                                                       MemRef::Of(dst)));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data3.size());
  EXPECT_EQ(std::memcmp(dst.data(), data3.data(), data3.size()), 0);
  // Four 256 KiB stripes, one per shard: one write piece and one read
  // piece each.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(wide.fs_proxy_shard(k).stats().requests - requests[k], 2u)
        << "shard " << k;
  }
  auto extents =
      RunSim(wide.sim(), wide.fs().Fiemap(*ino3, 0, data3.size()));
  ASSERT_TRUE(extents.ok());
  uint64_t offset = 0;
  for (const FsExtent& e : *extents) {
    for (uint64_t b = 0; b < e.len; ++b, offset += kChunk) {
      int owner = ShardOfFileRange(*ino3, offset, kChunk, 4);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(wide.fs_proxy_shard(k).cache()->Contains(e.start + b),
                  k == owner)
            << "offset " << offset << " shard " << k;
      }
    }
  }
  EXPECT_EQ(offset, data3.size());
}

// A proxy serves only its own stripes: a hand-built read or write that
// straddles a stripe boundary, or starts in another shard's stripe, fails
// with kInvalidArgument instead of caching blocks another shard owns.
TEST(ShardCoherenceTest, ProxyRejectsStraddlingAndMisroutedData) {
  Machine machine(ShardedConfig(4));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/owned.bin"));
  ASSERT_TRUE(ino.ok());
  const uint64_t stripe = kShardStripeBlocks * kChunk;
  DeviceBuffer buf(machine.phi_device(0), 2 * kChunk);
  auto written =
      RunSim(machine.sim(), stub.Write(*ino, stripe - kChunk, MemRef::Of(buf)));
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  const int owner = ShardOfFileRange(*ino, stripe - kChunk, kChunk, 4);
  const int other = (owner + 1) % 4;
  for (FsOp op : {FsOp::kRead, FsOp::kWrite}) {
    FsRequest request;
    request.op = op;
    request.ino = *ino;
    // Straddles the stripe boundary: half of it belongs to `other`.
    request.offset = stripe - kChunk;
    request.length = 2 * kChunk;
    request.memory = MemRef::Of(buf);
    FsResponse straddling =
        RunSim(machine.sim(), machine.fs_proxy_shard(owner).Handle(request));
    EXPECT_EQ(straddling.error, ErrorCode::kInvalidArgument);
    // Wholly inside the owner's stripe, but sent to another shard.
    request.length = kChunk;
    request.memory = MemRef::Of(buf, 0, kChunk);
    FsResponse misrouted =
        RunSim(machine.sim(), machine.fs_proxy_shard(other).Handle(request));
    EXPECT_EQ(misrouted.error, ErrorCode::kInvalidArgument);
    FsResponse owned =
        RunSim(machine.sim(), machine.fs_proxy_shard(owner).Handle(request));
    EXPECT_EQ(owned.error, ErrorCode::kOk);
    EXPECT_EQ(owned.value, kChunk);
  }
}

// Writes `data` to `ino` through `stub` in `piece`-byte appends, each
// followed by one to `other` at `*other_size`. Every 4KB block of either
// file lands on the next free block, so their extents never merge. Aligned
// 4KB pieces take the absorbing write-back path; 2KB pieces write through.
Task<Status> InterleavedAppends(FsStub* stub, DeviceId device, uint64_t ino,
                                uint64_t other, uint64_t* other_size,
                                const std::vector<uint8_t>* data,
                                uint64_t piece) {
  DeviceBuffer buf(device, piece);
  for (uint64_t off = 0; off < data->size(); off += piece) {
    std::memcpy(buf.data(), data->data() + off, piece);
    SOLROS_CO_RETURN_IF_ERROR(
        (co_await stub->Write(ino, off, MemRef::Of(buf))).status());
    SOLROS_CO_RETURN_IF_ERROR(
        (co_await stub->Write(other, *other_size, MemRef::Of(buf))).status());
    *other_size += piece;
  }
  co_return OkStatus();
}

// Reads `ino` through `stub` until it holds all of `data`, each byte as soon
// as the file has it (a read at EOF waits 1 us and retries, for at most
// 10 ms without progress), and counts the reads whose bytes differ from
// `data`.
Task<Status> ChaseAppends(FsStub* stub, DeviceId device, uint64_t ino,
                          const std::vector<uint8_t>* data, int* mismatches) {
  DeviceBuffer buf(device, kChunk);
  int idle = 0;
  for (uint64_t off = 0; off < data->size();) {
    SOLROS_CO_ASSIGN_OR_RETURN(
        uint64_t n, co_await stub->Read(ino, off, MemRef::Of(buf)));
    if (n == 0) {
      if (++idle > 10000) {
        co_return TimedOutError("file stopped growing");
      }
      co_await Delay(Microseconds(1));
      continue;
    }
    idle = 0;
    if (std::memcmp(buf.data(), data->data() + off, n) != 0) {
      ++*mismatches;
    }
    off += n;
  }
  co_return OkStatus();
}

Task<void> StoreStatus(Task<Status> task, Status* out) {
  *out = co_await std::move(task);
}

// A file fragmented past kDirectExtents keeps its later extents in an
// indirect block that every Fiemap reads. Written on one data plane and read
// from the other at shards=2, the file must read back right after a remap
// (truncate to 0, then a rewrite with new bytes), with the journal off and
// in metadata mode. The reader chases the rewrite, so it maps each new block
// while the append that allocated it commits; in metadata mode only
// SolrosFs::committing_ then holds the indirect block that maps it.
TEST(ShardCoherenceTest, FragmentedFileRemapsAcrossShards) {
  for (JournalMode mode : {JournalMode::kOff, JournalMode::kMetadata}) {
    SCOPED_TRACE(JournalModeName(mode));
    MachineConfig config = ShardedConfig(2);
    config.journal_mode = mode;
    Machine machine(std::move(config));
    CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
    FsStub& writer = machine.fs_stub(0);
    FsStub& reader = machine.fs_stub(1);
    writer.set_buffered(true);
    reader.set_buffered(true);
    const DeviceId wdev = machine.phi_device(0);
    const DeviceId rdev = machine.phi_device(1);

    auto ino = RunSim(machine.sim(), writer.Create("/remap.bin"));
    auto other = RunSim(machine.sim(), writer.Create("/other.bin"));
    ASSERT_TRUE(ino.ok() && other.ok());
    uint64_t other_size = 0;
    // 512 KiB: both shards' stripes, 128 single-block extents.
    auto before = RandomBytes(KiB(512), 1);
    Status appended = RunSim(
        machine.sim(), InterleavedAppends(&writer, wdev, *ino, *other,
                                          &other_size, &before, kChunk));
    ASSERT_TRUE(appended.ok()) << appended.ToString();
    auto stat = RunSim(machine.sim(), machine.fs().Stat("/remap.bin"));
    ASSERT_TRUE(stat.ok());
    ASSERT_GT(stat->extent_count, static_cast<uint32_t>(kDirectExtents))
        << "workload failed to force an indirect extent block";
    ExpectReadsBack(machine, reader, rdev, *ino, before);
    // A repeated read maps the same ranges again.
    ExpectReadsBack(machine, reader, rdev, *ino, before);

    // Truncate frees every extent and the indirect block; the rewrite
    // allocates them at new places while the reader follows it.
    ASSERT_TRUE(RunSim(machine.sim(), writer.Truncate(*ino, 0)).ok());
    auto after = RandomBytes(KiB(512), 2);
    WaitGroup wg(&machine.sim());
    Status chased;
    int mismatches = 0;
    SpawnJoined(machine.sim(), wg,
                StoreStatus(InterleavedAppends(&writer, wdev, *ino, *other,
                                               &other_size, &after,
                                               kChunk / 2),
                            &appended));
    SpawnJoined(machine.sim(), wg,
                StoreStatus(ChaseAppends(&reader, rdev, *ino, &after,
                                         &mismatches),
                            &chased));
    RunSim(machine.sim(), wg.Wait());
    ASSERT_TRUE(appended.ok()) << appended.ToString();
    ASSERT_TRUE(chased.ok()) << chased.ToString();
    EXPECT_EQ(mismatches, 0);
    stat = RunSim(machine.sim(), machine.fs().Stat("/remap.bin"));
    ASSERT_TRUE(stat.ok());
    EXPECT_GT(stat->extent_count, static_cast<uint32_t>(kDirectExtents));
    ExpectReadsBack(machine, reader, rdev, *ino, after);
  }
}

TEST(ShardCoherenceTest, ReadStreamsArePerShard) {
  Machine machine(ShardedConfig(2, /*num_phis=*/1));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(true);

  auto ino = RunSim(machine.sim(), stub.Create("/stream.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(KiB(512), 3);
  WriteChunked(machine, stub, machine.phi_device(0), *ino, data);

  // One sequential scan of two block groups: the same (client, ino) pair
  // forms an independent stream on EACH shard it crosses, because every
  // shard keeps its own stream table.
  ExpectReadsBack(machine, stub, machine.phi_device(0), *ino, data);
  EXPECT_EQ(machine.fs_proxy_shard(0).read_streams(), 1u);
  EXPECT_EQ(machine.fs_proxy_shard(1).read_streams(), 1u);
}

class ShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Faults().DisarmAll(); }
  void TearDown() override { Faults().DisarmAll(); }
};

TEST_F(ShardFaultTest, CoherenceSurvivesRpcAndNvmeFaults) {
  Machine machine(ShardedConfig(2));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& writer = machine.fs_stub(0);
  FsStub& reader = machine.fs_stub(1);
  writer.set_buffered(true);
  reader.set_buffered(true);

  auto ino = RunSim(machine.sim(), writer.Create("/faulted.bin"));
  ASSERT_TRUE(ino.ok());

  Faults().set_seed(42);
  CHECK_OK(Faults().Arm("rpc.drop.response", FaultSpec::Probability(0.01)));
  CHECK_OK(Faults().Arm("nvme.cmd.timeout", FaultSpec::Probability(0.01)));

  // Write, remap (truncate + rewrite), and cross-shard read back — the
  // full free-path invalidation protocol — with the recovery layers
  // absorbing dropped RPC responses and NVMe timeouts underneath.
  auto first = RandomBytes(KiB(256), 4);
  WriteChunked(machine, writer, machine.phi_device(0), *ino, first);
  ExpectReadsBack(machine, reader, machine.phi_device(1), *ino, first);
  ASSERT_TRUE(RunSim(machine.sim(), writer.Truncate(*ino, 0)).ok());
  auto second = RandomBytes(KiB(256), 5);
  WriteChunked(machine, writer, machine.phi_device(0), *ino, second);
  ExpectReadsBack(machine, reader, machine.phi_device(1), *ino, second);

  Faults().DisarmAll();
  // Once the noise stops, the final image must still verify.
  ExpectReadsBack(machine, reader, machine.phi_device(1), *ino, second);
}

// Machine-level crash matrix at shards=2: a power cut lands mid-workload
// while two shards write and fsync through the journal's barrier shard;
// after power-cycle a fresh mount over the surviving bytes must replay to
// an fsck-clean image. (The single-proxy matrix lives in
// crash_consistency_test.cc; this covers the sharded flush barrier.)
TEST_F(ShardFaultTest, PowerCutAtTwoShardsRecoversFsckClean) {
  for (uint64_t nth : {5u, 17u, 53u}) {
    MachineConfig config = ShardedConfig(2, /*num_phis=*/1);
    config.journal_mode = JournalMode::kMetadata;
    Machine machine(std::move(config));
    CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
    // Formatting must be durable before the cut can land.
    ASSERT_TRUE(RunSim(machine.sim(), machine.fs().Sync()).ok());

    FsStub& stub = machine.fs_stub(0);
    stub.set_buffered(true);
    Faults().set_seed(0x5eed + nth);
    ASSERT_TRUE(
        Faults().Arm("nvme.powercut", FaultSpec::EveryNth(nth)).ok());

    Prng prng(nth);
    bool cut = false;
    for (int file = 0; file < 6 && !cut; ++file) {
      std::string path = "/f" + std::to_string(file);
      auto ino = RunSim(machine.sim(), stub.Create(path));
      if (!ino.ok()) {
        ASSERT_TRUE(machine.nvme().crashed()) << ino.status().ToString();
        cut = true;
        break;
      }
      auto data = RandomBytes(KiB(64), nth * 10 + file);
      DeviceBuffer buf(machine.phi_device(0), kChunk);
      for (uint64_t off = 0; off < data.size() && !cut; off += kChunk) {
        std::memcpy(buf.data(), data.data() + off, kChunk);
        auto written =
            RunSim(machine.sim(), stub.Write(*ino, off, MemRef::Of(buf)));
        if (!written.ok()) {
          ASSERT_TRUE(machine.nvme().crashed())
              << written.status().ToString();
          cut = true;
        }
      }
      if (!cut) {
        Status synced = RunSim(machine.sim(), stub.Fsync(*ino));
        if (!synced.ok()) {
          ASSERT_TRUE(machine.nvme().crashed()) << synced.ToString();
          cut = true;
        }
      }
    }
    EXPECT_TRUE(cut) << "N=" << nth << " never fired; widen the workload";

    // Recovery: disarm, power-cycle, mount fresh over the survivors.
    Faults().DisarmAll();
    machine.nvme().PowerCycle();
    SolrosFs recovered(&machine.store(), &machine.sim());
    ASSERT_TRUE(RunSim(machine.sim(), recovered.Mount()).ok());
    auto report = RunSim(machine.sim(), RunFsck(&machine.store()));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << "N=" << nth << "\n" << report->ToString();
  }
}

}  // namespace
}  // namespace solros
