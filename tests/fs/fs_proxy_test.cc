// FsProxy's buffered read path against a file system whose metadata reads
// a test can hold, so a request can be parked at a chosen suspension.
#include "src/fs/fs_proxy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/fs/layout.h"
#include "src/fs/nvme_block_store.h"
#include "src/fs/solros_fs.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

// Forwards to `inner`; after HoldNextRead() the next Read parks until
// Release().
class GateStore : public BlockStore {
 public:
  GateStore(Simulator* sim, BlockStore* inner) : inner_(inner), gate_(sim) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Task<Status> Read(uint64_t lba, uint32_t nblocks,
                    std::span<uint8_t> out) override {
    if (std::exchange(hold_next_read_, false)) {
      ++parked_;
      co_await gate_.Wait();
      --parked_;
    }
    co_return co_await inner_->Read(lba, nblocks, out);
  }
  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    return inner_->Write(lba, nblocks, in);
  }
  Task<Status> Flush() override { return inner_->Flush(); }
  Task<Status> ReadV(std::span<const BlockRun> runs, bool coalesce) override {
    return inner_->ReadV(runs, coalesce);
  }
  Task<Status> WriteV(std::span<const ConstBlockRun> runs,
                      bool coalesce) override {
    return inner_->WriteV(runs, coalesce);
  }

  void HoldNextRead() { hold_next_read_ = true; }
  void Release() { gate_.NotifyAll(); }
  int parked() const { return parked_; }

 private:
  BlockStore* inner_;
  Condition gate_;
  bool hold_next_read_ = false;
  int parked_ = 0;
};

// One unsharded proxy whose file system reads metadata through a GateStore.
struct Rig {
  static FsProxy::Options SmallCache() {
    FsProxy::Options options;
    options.cache_blocks = 256;
    return options;
  }

  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu{&sim, host, 48, 1.0, "host-cpu"};
  NvmeDevice nvme{&sim, &fabric, params, nvme_id, MiB(64), &host_cpu};
  NvmeBlockStore store{&nvme, &host_cpu};
  GateStore gate{&sim, &store};
  SolrosFs fs{&gate, &sim};
  FsShardCoordinator coordinator;
  FsProxy proxy{&sim,   &fabric, params,       &host_cpu,
                &store, &fs,     SmallCache(), {0, 1, coordinator}};
};

FsRequest BufferedRead(uint64_t ino, uint64_t offset, DeviceBuffer& target) {
  FsRequest request;
  request.op = FsOp::kRead;
  request.flags = kFsFlagBuffered;
  request.ino = ino;
  request.offset = offset;
  request.length = target.size();
  request.memory = MemRef::Of(target);
  return request;
}

Task<void> Serve(FsProxy* proxy, FsRequest request, FsResponse* response) {
  *response = co_await proxy->Handle(request);
}

// Serves `request` and reports how long the proxy took in simulated time.
Task<void> ServeTimed(FsProxy* proxy, FsRequest request, FsResponse* response,
                      Nanos* elapsed) {
  Simulator* sim = co_await CurrentSimulator();
  const SimTime start = sim->now();
  *response = co_await proxy->Handle(request);
  *elapsed = sim->now() - start;
}

// Reads the last 8 of a 20-extent file's blocks with the proxy parked in
// Fiemap's read of the indirect extent block, and truncates the file to
// `new_blocks` in that suspension. The read returns the length it stat'ed:
// the blocks the truncate kept, then zeros.
void TruncateWhileTailReadMaps(uint64_t new_blocks) {
  Rig rig;
  CHECK_OK(RunSim(rig.sim, rig.fs.Format()));
  auto file = RunSim(rig.sim, rig.fs.Create("/file"));
  auto other = RunSim(rig.sim, rig.fs.Create("/other"));
  ASSERT_TRUE(file.ok() && other.ok());
  // Interleaved one-block appends fragment the file past its direct
  // extents, so mapping it reads the indirect extent block: the suspension
  // a truncate can land in.
  constexpr uint64_t kBlocks = 20;
  std::vector<uint8_t> data(kBlocks * kFsBlockSize);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    std::span<uint8_t> block(data.data() + b * kFsBlockSize, kFsBlockSize);
    std::memset(block.data(), static_cast<int>(0x80 | b), kFsBlockSize);
    ASSERT_TRUE(RunSim(rig.sim, rig.fs.WriteAt(*file, b * kFsBlockSize,
                                               block)).ok());
    ASSERT_TRUE(RunSim(rig.sim, rig.fs.WriteAt(*other, b * kFsBlockSize,
                                               block)).ok());
  }
  auto stat = RunSim(rig.sim, rig.fs.StatInode(*file));
  ASSERT_TRUE(stat.ok());
  ASSERT_GT(stat->extent_count, static_cast<uint32_t>(kDirectExtents));

  // A whole-file buffered read leaves the file's bytes in the proxy's
  // bounce buffer.
  DeviceBuffer whole(rig.phi, data.size());
  FsResponse response;
  RunSim(rig.sim, Serve(&rig.proxy, BufferedRead(*file, 0, whole), &response));
  ASSERT_EQ(response.error, ErrorCode::kOk);
  ASSERT_EQ(std::memcmp(whole.data(), data.data(), data.size()), 0);

  // Read the last 8 blocks: the proxy stats the file at 20 blocks, then
  // parks mapping it.
  constexpr uint64_t kTail = 12 * kFsBlockSize;
  DeviceBuffer tail(rig.phi, data.size() - kTail);
  FsResponse tail_response;
  rig.gate.HoldNextRead();
  Spawn(rig.sim,
        Serve(&rig.proxy, BufferedRead(*file, kTail, tail), &tail_response));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.gate.parked(), 1);

  // The truncate lands before the mapping reads the size, so the map
  // covers fewer blocks than the read goes on to copy out.
  const uint64_t new_size = new_blocks * kFsBlockSize;
  FsRequest truncate;
  truncate.op = FsOp::kTruncate;
  truncate.ino = *file;
  truncate.length = new_size;
  RunSim(rig.sim, Serve(&rig.proxy, truncate, &response));
  ASSERT_EQ(response.error, ErrorCode::kOk);
  rig.gate.Release();
  rig.sim.RunUntilIdle();

  ASSERT_EQ(rig.gate.parked(), 0);
  ASSERT_EQ(tail_response.error, ErrorCode::kOk);
  ASSERT_EQ(tail_response.value, tail.size());
  const uint64_t kept = new_size > kTail ? new_size - kTail : 0;
  EXPECT_EQ(std::memcmp(tail.data(), data.data() + kTail, kept), 0);
  for (uint64_t i = kept; i < tail.size(); ++i) {
    ASSERT_EQ(tail.data()[i], 0) << "byte " << kTail + i << " past the end";
  }
}

TEST(FsProxyTest, TruncateBeforeFiemapLeaksNoPooledBounceBytes) {
  // The map covers 4 of the 8 blocks.
  TruncateWhileTailReadMaps(16);
}

TEST(FsProxyTest, TruncateToDirectExtentsWhileMappingRereadsTheExtents) {
  // The file drops to 8 extents, all direct, while its indirect block is
  // read: the mapping must not take 20 extents from that block.
  TruncateWhileTailReadMaps(8);
}

TEST(FsProxyTest, LargeBounceLeaseIsReusedAndUnmappedCleanly) {
  // A bounce of 2 MiB or more is a mapping of its own. The second read
  // leases the spare the first returned, poisoned under ASan, and the
  // proxy's teardown unpoisons and unmaps it; memory mapped after it must
  // be writable.
  constexpr uint64_t kBytes = MiB(2) + 8 * kFsBlockSize;
  std::vector<uint8_t> data(kBytes);
  for (uint64_t i = 0; i < kBytes; ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + i / kFsBlockSize);
  }
  DeviceId phi;
  {
    Rig rig;
    phi = rig.phi;
    CHECK_OK(RunSim(rig.sim, rig.fs.Format()));
    auto file = RunSim(rig.sim, rig.fs.Create("/file"));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(RunSim(rig.sim, rig.fs.WriteAt(*file, 0, data)).ok());
    DeviceBuffer target(rig.phi, kBytes);
    for (int round = 0; round < 2; ++round) {
      std::fill_n(target.data(), kBytes, 0);
      FsResponse response;
      RunSim(rig.sim,
             Serve(&rig.proxy, BufferedRead(*file, 0, target), &response));
      ASSERT_EQ(response.error, ErrorCode::kOk) << "round " << round;
      ASSERT_EQ(response.value, kBytes) << "round " << round;
      ASSERT_EQ(std::memcmp(target.data(), data.data(), kBytes), 0)
          << "round " << round;
    }
  }
  DeviceBuffer after(phi, kBytes);
  std::fill_n(after.data(), kBytes, 0xff);
  EXPECT_EQ(after.data()[kBytes - 1], 0xff);
}

TEST(FsProxyTest, HostMemoryReaddirPaysTheHostMemoryCopy) {
  // A listing into host memory is a memcpy from the proxy's staging rows,
  // charged at host-memory bandwidth as a host-memory read is: listing
  // every row costs exactly that copy more than listing none.
  Rig rig;
  CHECK_OK(RunSim(rig.sim, rig.fs.Format()));
  CHECK_OK(RunSim(rig.sim, rig.fs.Mkdir("/dir")));
  constexpr uint64_t kFiles = 8;
  // `append`, not `+`: GCC 12's Release -Wrestrict misfires on the latter.
  auto name = [](uint64_t i) {
    return std::string("f").append(std::to_string(i));
  };
  for (uint64_t i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        RunSim(rig.sim, rig.fs.Create(std::string("/dir/").append(name(i))))
            .ok());
  }
  auto list = [&rig](DeviceBuffer& window, FsResponse* response) {
    FsRequest request;
    request.op = FsOp::kReaddir;
    request.SetPath("/dir");
    request.memory = MemRef::Of(window);
    Nanos elapsed = 0;
    RunSim(rig.sim, ServeTimed(&rig.proxy, request, response, &elapsed));
    return elapsed;
  };
  DeviceBuffer rows(rig.host, kFiles * sizeof(Dirent));
  DeviceBuffer no_rows(rig.host, sizeof(Dirent) - 1);
  FsResponse response;
  list(rows, &response);  // the directory's metadata is cached from here on
  const Nanos none = list(no_rows, &response);
  ASSERT_EQ(response.error, ErrorCode::kOk);
  ASSERT_EQ(response.value, 0u);
  const Nanos all = list(rows, &response);
  ASSERT_EQ(response.error, ErrorCode::kOk);
  ASSERT_EQ(response.value, kFiles);
  EXPECT_EQ(all - none,
            TransferTime(kFiles * sizeof(Dirent), rig.params.host_mem_bw));
  for (uint64_t i = 0; i < kFiles; ++i) {
    Dirent row;
    std::memcpy(static_cast<void*>(&row), rows.data() + i * sizeof(Dirent),
                sizeof(Dirent));
    EXPECT_EQ(row.Name(), name(i));
  }
}

}  // namespace
}  // namespace solros
