// Correctness under every proxy configuration knob, plus the prefetch
// feature (§4.3) and stats accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/core/machine.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng prng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(prng.Next());
  }
  return out;
}

// Writes + reads back a file through the stub under a given proxy config;
// returns elapsed sim time for the read.
Nanos RoundtripUnder(FsProxy::Options options, uint64_t bytes,
                     uint64_t seed) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(256);
  config.enable_network = false;
  config.fs_options = options;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/x"));
  CHECK_OK(ino);
  auto data = RandomBytes(bytes, seed);
  DeviceBuffer src(machine.phi_device(0), bytes);
  std::memcpy(src.data(), data.data(), bytes);
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));
  DeviceBuffer dst(machine.phi_device(0), bytes);
  SimTime t0 = machine.sim().now();
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  CHECK_OK(n);
  CHECK_EQ(*n, bytes);
  CHECK_EQ(std::memcmp(dst.data(), data.data(), bytes), 0);
  return machine.sim().now() - t0;
}

class ProxyConfigTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, size_t>> {};

TEST_P(ProxyConfigTest, RoundtripIsCorrectUnderEveryKnobCombination) {
  auto [coalesce, allow_p2p, cache_blocks] = GetParam();
  FsProxy::Options options;
  options.coalesce_nvme = coalesce;
  options.allow_p2p = allow_p2p;
  options.cache_blocks = cache_blocks;
  // Aligned and unaligned payloads.
  RoundtripUnder(options, MiB(2), 1);
  RoundtripUnder(options, 12345, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ProxyConfigTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{4096})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "coalesce" : "nocoal") +
             "_" + (std::get<1>(info.param) ? "p2p" : "staged") + "_" +
             (std::get<2>(info.param) != 0 ? "cache" : "nocache");
    });

TEST(PrefetchTest, PrefetchedFileIsServedFromCache) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(256);
  config.enable_network = false;
  config.fs_options.cache_blocks = 16384;  // 64 MiB
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/hot"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(8), 3);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  // Control plane prefetches the file into the shared cache.
  CHECK_OK(RunSim(machine.sim(), machine.fs_proxy().Prefetch("/hot")));
  EXPECT_GT(machine.fs_proxy().cache()->size(), 0u);

  // A buffered read is now cache-hot (no further NVMe reads).
  uint64_t nvme_reads_before = machine.nvme().bytes_read();
  stub.set_buffered(true);
  DeviceBuffer dst(machine.phi_device(0), data.size());
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_EQ(machine.nvme().bytes_read(), nvme_reads_before);
  EXPECT_GT(machine.fs_proxy().cache()->hits(), 0u);
  // The policy also avoids P2P for cache-hot unbuffered reads.
  stub.set_buffered(false);
  auto n2 = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(machine.fs_proxy().stats().p2p_reads, 0u);
}

TEST(PrefetchTest, PrefetchWithoutCacheFails) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.fs_options.cache_blocks = 0;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  EXPECT_EQ(RunSim(machine.sim(), machine.fs_proxy().Prefetch("/nope"))
                .code(),
            ErrorCode::kFailedPrecondition);
}

TEST(PrefetchTest, PrefetchMissingFileFails) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  EXPECT_EQ(RunSim(machine.sim(), machine.fs_proxy().Prefetch("/nope"))
                .code(),
            ErrorCode::kNotFound);
}

// Prefetch installs through the guarded staged fill. With the cache full of
// dirty pages, each of its installs suspends in a write-back eviction; a P2P
// write to the file's tail that lands meanwhile must not be undone by the
// prefetch installing the tail's old bytes after the write's last drop.
TEST(PrefetchTest, PrefetchRacingP2pWriteKeepsTheNewBytes) {
  constexpr uint64_t kCacheBlocks = 64;
  constexpr uint64_t kFileBlocks = 32;
  constexpr uint64_t kTailBlocks = 4;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.proxy_shards = 1;
  config.fs_options.cache_blocks = kCacheBlocks;
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  CHECK_OK(RunSim(sim, machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  FsProxy& proxy = machine.fs_proxy();
  auto write = [&](uint64_t ino, uint64_t offset,
                   const std::vector<uint8_t>& bytes) {
    DeviceBuffer src(machine.phi_device(0), bytes.size());
    std::memcpy(src.data(), bytes.data(), bytes.size());
    CHECK_OK(RunSim(sim, stub.Write(ino, offset, MemRef::Of(src))));
  };

  // The file to prefetch, and a filler file twice the cache's size, both
  // written to the device.
  auto hot = RunSim(sim, stub.Create("/hot"));
  ASSERT_TRUE(hot.ok());
  write(*hot, 0, RandomBytes(kFileBlocks * kFsBlockSize, 5));
  auto filler = RunSim(sim, stub.Create("/filler"));
  ASSERT_TRUE(filler.ok());
  write(*filler, 0, RandomBytes(2 * kCacheBlocks * kFsBlockSize, 6));
  ASSERT_EQ(proxy.cache()->size(), 0u);
  // Buffered overwrites of every other filler block fill the cache with
  // dirty pages, each its own write-back cluster.
  stub.set_buffered(true);
  for (uint64_t b = 0; b < 2 * kCacheBlocks; b += 2) {
    write(*filler, b * kFsBlockSize, RandomBytes(kFsBlockSize, 100 + b));
  }
  stub.set_buffered(false);
  ASSERT_EQ(proxy.cache()->dirty_pages(), kCacheBlocks);

  const uint64_t tail = (kFileBlocks - kTailBlocks) * kFsBlockSize;
  const auto new_tail = RandomBytes(kTailBlocks * kFsBlockSize, 7);
  DeviceBuffer tail_src(machine.phi_device(0), new_tail.size());
  std::memcpy(tail_src.data(), new_tail.data(), new_tail.size());
  Status prefetched;
  bool prefetch_done = false;
  bool wrote_mid_prefetch = false;
  const uint64_t p2p_writes = proxy.stats().p2p_writes;
  WaitGroup wg(&sim);
  auto prefetch = [&]() -> Task<void> {
    prefetched = co_await proxy.Prefetch("/hot");
    prefetch_done = true;
    wg.Done();
  };
  // Overwrites the tail once the prefetch has begun installing.
  auto overwrite = [&]() -> Task<void> {
    while (proxy.cache()->evictions() == 0) {
      co_await Delay(Microseconds(1));
    }
    CHECK_OK(co_await stub.Write(*hot, tail, MemRef::Of(tail_src)));
    wrote_mid_prefetch = !prefetch_done;
    wg.Done();
  };
  auto race = [&]() -> Task<void> {
    wg.Add(2);
    Spawn(sim, prefetch());
    Spawn(sim, overwrite());
    co_await wg.Wait();
  };
  RunSim(sim, race());
  CHECK_OK(prefetched);
  EXPECT_EQ(proxy.stats().p2p_writes, p2p_writes + 1);
  EXPECT_TRUE(wrote_mid_prefetch);

  stub.set_buffered(true);
  DeviceBuffer dst(machine.phi_device(0), new_tail.size());
  auto n = RunSim(sim, stub.Read(*hot, tail, MemRef::Of(dst)));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, new_tail.size());
  EXPECT_EQ(std::memcmp(dst.data(), new_tail.data(), new_tail.size()), 0);
}

TEST(MachineStatsTest, DumpStatsMentionsEverySubsystem) {
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(64);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(), machine.fs_stub(0).Create("/s"));
  ASSERT_TRUE(ino.ok());
  std::ostringstream os;
  machine.DumpStats(os);
  std::string out = os.str();
  EXPECT_NE(out.find("fs-proxy"), std::string::npos);
  EXPECT_NE(out.find("buffer-cache"), std::string::npos);
  EXPECT_NE(out.find("nvme"), std::string::npos);
  EXPECT_NE(out.find("tcp-proxy"), std::string::npos);
  EXPECT_NE(out.find("dataplane 1"), std::string::npos);
}

}  // namespace
}  // namespace solros
