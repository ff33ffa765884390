// End-to-end integration of the full Solros machine: data-plane stubs,
// control-plane proxies, the data-path policy, real data integrity through
// every layer, and the environment knobs that configure it.
#include "src/core/machine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/base/prng.h"
#include "src/base/sharding.h"
#include "src/base/units.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

MachineConfig SmallConfig(int num_phis = 1) {
  MachineConfig config;
  config.num_phis = num_phis;
  config.nvme_capacity = MiB(256);
  config.fs_options.cache_blocks = 4096;  // 16 MiB cache
  return config;
}

// Resident set size of this process, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  CHECK(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng prng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(prng.Next());
  }
  return out;
}

TEST(MachineFsTest, CreateWriteReadThroughStubP2p) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);

  auto ino = RunSim(machine.sim(), stub.Create("/data.bin"));
  ASSERT_TRUE(ino.ok());

  // Block-aligned I/O from Phi memory: should ride the P2P path.
  auto data = RandomBytes(MiB(4), 1);
  DeviceBuffer phi_src(machine.phi_device(0), data.size());
  std::memcpy(phi_src.data(), data.data(), data.size());
  auto written =
      RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(phi_src)));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, data.size());

  DeviceBuffer phi_dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(phi_dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(std::memcmp(phi_dst.data(), data.data(), data.size()), 0);

  EXPECT_GE(machine.fs_proxy().stats().p2p_writes, 1u);
  EXPECT_GE(machine.fs_proxy().stats().p2p_reads, 1u);
  EXPECT_EQ(machine.fs_proxy().stats().buffered_reads, 0u);
}

TEST(MachineFsTest, UnalignedIoFallsBackToBuffered) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/odd.bin"));
  ASSERT_TRUE(ino.ok());

  auto data = RandomBytes(10000, 2);  // unaligned length
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  auto written = RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src)));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(machine.fs_proxy().stats().buffered_writes, 1u);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_GE(machine.fs_proxy().stats().buffered_reads, 1u);
}

TEST(MachineFsTest, OBufferFlagForcesBufferedPath) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(true);  // O_BUFFER (§4.3.2)
  auto ino = RunSim(machine.sim(), stub.Create("/buffered.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 3);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  EXPECT_EQ(machine.fs_proxy().stats().p2p_writes, 0u);
  EXPECT_EQ(machine.fs_proxy().stats().buffered_writes, 1u);
}

TEST(MachineFsTest, CrossNumaPhiIsRoutedBuffered) {
  // Phi on socket 1, NVMe on socket 0: the policy must refuse P2P.
  MachineConfig config = SmallConfig();
  config.phi_sockets = {1};
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/far.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 4);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  EXPECT_EQ(machine.fs_proxy().stats().p2p_writes, 0u);
  EXPECT_GE(machine.fs_proxy().stats().buffered_writes, 1u);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
}

TEST(MachineFsTest, CacheHitMakesSecondReadFasterAndBuffered) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/hot.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 5);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  // P2P write: leaves no resident pages, so the first buffered read must
  // fault from disk and only the second be served from the cache.
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  stub.set_buffered(true);
  const BufferCache& cache = *machine.fs_proxy().cache();
  const FsProxyStats& stats = machine.fs_proxy().stats();

  DeviceBuffer dst(machine.phi_device(0), data.size());
  SimTime t0 = machine.sim().now();
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  Nanos cold = machine.sim().now() - t0;
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  std::memset(dst.data(), 0, dst.size());
  t0 = machine.sim().now();
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  Nanos hot = machine.sim().now() - t0;
  EXPECT_LT(hot, cold);  // served from host cache, no disk
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(stats.buffered_reads, 2u);
  EXPECT_EQ(stats.p2p_reads, 0u);
}

TEST(MachineFsTest, BufferedReadCountsDemandMissesAndHits) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/count.bin"));
  ASSERT_TRUE(ino.ok());
  constexpr uint64_t kBlocks = 64;
  const uint64_t bytes = kBlocks * kFsBlockSize;
  // Trailing blocks past the read, so the readahead window has room to
  // stage speculative pages: those must not count as demand misses.
  auto data = RandomBytes(2 * bytes, 9);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  stub.set_buffered(true);
  const BufferCache& cache = *machine.fs_proxy().cache();
  Counter* registry_misses =
      MetricRegistry::Default().GetCounter("cache.misses");
  const uint64_t registry0 = registry_misses->value();
  const uint64_t hits0 = cache.hits();

  DeviceBuffer dst(machine.phi_device(0), bytes);
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  EXPECT_EQ(cache.misses(), kBlocks);
  EXPECT_EQ(registry_misses->value() - registry0, kBlocks);
  EXPECT_EQ(cache.hits(), hits0);
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  EXPECT_EQ(cache.misses(), kBlocks);
  EXPECT_EQ(cache.hits(), hits0 + kBlocks);
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), bytes), 0);
}

TEST(MachineFsTest, SequentialStreamReadaheadCutsCommandCount) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/stream.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(4), 6);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  // P2P write: leaves the cache cold (P2P invalidates, never populates).
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());

  stub.set_buffered(true);
  const uint64_t chunk = KiB(64);
  const uint64_t chunks = data.size() / chunk;
  DeviceBuffer dst(machine.phi_device(0), chunk);
  uint64_t commands0 = machine.nvme().commands_completed();
  for (uint64_t i = 0; i < chunks; ++i) {
    auto n = RunSim(machine.sim(),
                    stub.Read(*ino, i * chunk, MemRef::Of(dst)));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, chunk);
    ASSERT_EQ(std::memcmp(dst.data(), data.data() + i * chunk, chunk), 0);
  }
  uint64_t commands = machine.nvme().commands_completed() - commands0;
  // Without readahead this stream costs one NVMe command per chunk; the
  // adaptive window must collapse that by at least 3x (steady state is one
  // command per window, ~4-5x).
  EXPECT_LE(commands, chunks / 3) << "readahead did not batch the stream";
  EXPECT_GT(machine.fs_proxy().cache()->readahead_hits(), 0u);

  // A non-sequential jump resets the stream: the very next read must fetch
  // only its own blocks (one command), not a grown speculative window.
  // Fresh machine so the jump target is genuinely cold.
  Machine cold_machine(SmallConfig());
  CHECK_OK(RunSim(cold_machine.sim(), cold_machine.FormatFs()));
  FsStub& cold_stub = cold_machine.fs_stub(0);
  auto cold_ino = RunSim(cold_machine.sim(), cold_stub.Create("/cold.bin"));
  ASSERT_TRUE(cold_ino.ok());
  DeviceBuffer cold_src(cold_machine.phi_device(0), data.size());
  std::memcpy(cold_src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(cold_machine.sim(),
                     cold_stub.Write(*cold_ino, 0, MemRef::Of(cold_src)))
                  .ok());
  cold_stub.set_buffered(true);
  // Grow a window with a few sequential reads...
  DeviceBuffer buf(cold_machine.phi_device(0), chunk);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(RunSim(cold_machine.sim(),
                       cold_stub.Read(*cold_ino, i * chunk, MemRef::Of(buf)))
                    .ok());
  }
  // ...then jump far backward-of-stream into a cold region: the reset
  // window must not prefetch, so exactly one device command is issued.
  uint64_t before = cold_machine.nvme().commands_completed();
  ASSERT_TRUE(RunSim(cold_machine.sim(),
                     cold_stub.Read(*cold_ino, MiB(2), MemRef::Of(buf)))
                  .ok());
  EXPECT_EQ(cold_machine.nvme().commands_completed() - before, 1u);
}

TEST(MachineFsTest, MetadataOpsThroughStub) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  CHECK_OK(RunSim(machine.sim(), stub.Mkdir("/dir")));
  ASSERT_TRUE(RunSim(machine.sim(), stub.Create("/dir/a")).ok());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Create("/dir/b")).ok());
  auto entries = RunSim(machine.sim(), stub.Readdir("/dir"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  auto stat = RunSim(machine.sim(), stub.Stat("/dir/a"));
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 0u);
  CHECK_OK(RunSim(machine.sim(), stub.Rename("/dir/a", "/dir/c")));
  CHECK_OK(RunSim(machine.sim(), stub.Unlink("/dir/b")));
  CHECK_OK(RunSim(machine.sim(), stub.Unlink("/dir/c")));
  CHECK_OK(RunSim(machine.sim(), stub.Rmdir("/dir")));
  EXPECT_EQ(RunSim(machine.sim(), stub.Stat("/dir")).code(),
            ErrorCode::kNotFound);
}

TEST(MachineFsTest, TwoDataPlanesShareOneFileSystem) {
  Machine machine(SmallConfig(/*num_phis=*/2));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(), machine.fs_stub(0).Create("/shared"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(KiB(64), 6);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(),
                     machine.fs_stub(0).Write(*ino, 0, MemRef::Of(src)))
                  .ok());
  // Data plane 1 opens and reads what data plane 0 wrote.
  auto ino1 = RunSim(machine.sim(), machine.fs_stub(1).Open("/shared"));
  ASSERT_TRUE(ino1.ok());
  EXPECT_EQ(*ino1, *ino);
  DeviceBuffer dst(machine.phi_device(1), data.size());
  auto read = RunSim(machine.sim(),
                     machine.fs_stub(1).Read(*ino1, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
}

// ---------------------------------------------------------------------------
// Network integration
// ---------------------------------------------------------------------------

// A simple echo server running on a data-plane OS; one task per
// connection.
Task<void> EchoConn(ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok()) {
      break;  // peer closed
    }
    Status status = co_await api->Send(sock, *message);
    if (!status.ok()) {
      break;
    }
  }
}

Task<void> EchoServer(ServerSocketApi* api, uint16_t port, int connections) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(port, 64);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, EchoConn(api, *sock));
  }
}

Task<void> EchoClient(EthernetFabric* eth, Processor* cpu, uint16_t port,
                      int messages, size_t size, bool* ok, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(0x0a000001, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(size, 0x42);
  for (int i = 0; i < messages; ++i) {
    payload[0] = static_cast<uint8_t>(i);
    Status sent = co_await eth->ClientSend(*conn, payload, cpu);
    if (!sent.ok()) {
      *ok = false;
      break;
    }
    auto echoed = co_await eth->ClientRecv(*conn);
    if (!echoed.ok() || echoed->size() != size || (*echoed)[0] != payload[0]) {
      *ok = false;
      break;
    }
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

TEST(MachineNetTest, EchoThroughSolrosStack) {
  Machine machine(SmallConfig());
  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 7000, 1));
  machine.sim().RunUntilIdle();

  bool ok = true;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), EchoClient(&machine.ethernet(), &client_cpu, 7000, 20,
                                  64, &ok, &wg));
  machine.sim().RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
  EXPECT_EQ(machine.tcp_proxy().stats().inbound_messages, 20u);
  EXPECT_EQ(machine.tcp_proxy().stats().outbound_messages, 20u);
}

TEST(MachineNetTest, SharedListeningSocketBalancesAcrossPhis) {
  Machine machine(SmallConfig(/*num_phis=*/4));
  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  // All four data planes listen on the same port (§4.4.3).
  for (int i = 0; i < 4; ++i) {
    Spawn(machine.sim(), EchoServer(&machine.net_stub(i), 8000, 2));
  }
  machine.sim().RunUntilIdle();

  bool ok = true;
  WaitGroup wg(&machine.sim());
  for (int c = 0; c < 8; ++c) {
    wg.Add(1);
    Spawn(machine.sim(), EchoClient(&machine.ethernet(), &client_cpu, 8000, 5,
                                    64, &ok, &wg));
  }
  machine.sim().RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
  // Round robin: 8 connections over 4 co-processors = 2 each; every stub
  // must have seen traffic.
  EXPECT_EQ(machine.tcp_proxy().stats().connections_forwarded, 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(machine.net_stub(i).events_dispatched(), 0u) << i;
  }
}

TEST(MachineMemoryTest, UnwrittenMediaCostsNoHostMemory) {
  // Shadow memory makes RSS under ASan/TSan meaningless for this bound.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS is inflated by sanitizer shadow memory";
#endif
  uint64_t before = ResidentBytes();
  Machine machine(MachineConfig{});  // default 2 GiB NVMe, 128 MiB cache
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  NvmeDevice& nvme = machine.nvme();
  ASSERT_EQ(nvme.block_count() * nvme.block_size(), GiB(2));

  // Never-written blocks across the device read back as zeros.
  DeviceBuffer dst(machine.host_device(), MiB(1));
  uint32_t nblocks = static_cast<uint32_t>(dst.size() / nvme.block_size());
  uint64_t last = nvme.block_count() - nblocks;
  for (uint64_t lba : {last / 4, last / 2, last}) {
    std::fill_n(dst.data(), dst.size(), 0xab);
    Status status = RunSim(
        machine.sim(),
        nvme.SubmitOne(NvmeCommand{NvmeCommand::Op::kRead, lba, nblocks,
                                   MemRef::Of(dst)},
                       &machine.host_cpu()));
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(std::all_of(dst.data(), dst.data() + dst.size(),
                            [](uint8_t b) { return b == 0; }))
        << "lba " << lba;
  }

  // Only written bytes cost host memory. Measured growth is 3 MiB (GCC 12
  // Release build, x86-64 Linux): the formatted metadata plus the pages the
  // rings and cache touched. The bound leaves room for allocator and
  // huge-page rounding and is still 32x below the 2 GiB a zero-filled
  // device image costs (2178 MiB measured with one).
  uint64_t after = ResidentBytes();
  uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, MiB(64)) << "RSS grew " << grown / MiB(1) << " MiB";
}

// --- Environment knobs ------------------------------------------------------
//
// SOLROS_PROXY_SHARDS must be a decimal shard count in [1, kMaxProxyShards],
// SOLROS_JOURNAL a journal mode name (or unset / "0") and SOLROS_FAULTS a
// fault preset naming known points, and --trace-sample= a positive decimal
// rate; a malformed value is rejected by name instead of silently running
// another configuration. These tests assume no knob is set in the ambient
// environment.

// Sets an environment variable for one scope.
struct ScopedEnv {
  ScopedEnv(const char* name, const std::string& value) : name(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name); }
  const char* name;
};

TEST(ProxyShardsEnvTest, AcceptsCountsInRangeAndRejectsOthersNamingThem) {
  EXPECT_EQ(ProxyShardsFromEnv().value(), 1);
  for (int shards : {1, 4, kMaxProxyShards}) {
    ScopedEnv env("SOLROS_PROXY_SHARDS", std::to_string(shards));
    EXPECT_EQ(ProxyShardsFromEnv().value(), shards);
  }
  for (std::string bad : {"abc", "2x", " 2", "+2", "0", "-1", "17", "99"}) {
    ScopedEnv env("SOLROS_PROXY_SHARDS", bad);
    Result<int> shards = ProxyShardsFromEnv();
    ASSERT_FALSE(shards.ok()) << bad;
    EXPECT_NE(shards.status().message().find('"' + bad + '"'),
              std::string::npos)
        << shards.status().ToString();
  }
}

TEST(ProxyShardsEnvDeathTest, MachineRefusesMalformedShardCount) {
  ScopedEnv env("SOLROS_PROXY_SHARDS", "2x");
  EXPECT_DEATH(Machine machine{MachineConfig{}},
               "SOLROS_PROXY_SHARDS: bad value \"2x\"");
}

TEST(BenchEnvTest, JournalKnobMapsModeNamesAndRejectsOthers) {
  EXPECT_EQ(BenchJournalMode().value(), JournalMode::kOff);
  {
    ScopedEnv env("SOLROS_JOURNAL", "0");
    EXPECT_EQ(BenchJournalMode().value(), JournalMode::kOff);
  }
  // Every JournalModeName is accepted.
  for (JournalMode mode :
       {JournalMode::kOff, JournalMode::kMetadata, JournalMode::kData}) {
    ScopedEnv env("SOLROS_JOURNAL", JournalModeName(mode));
    EXPECT_EQ(BenchJournalMode().value(), mode) << JournalModeName(mode);
  }
  ScopedEnv env("SOLROS_JOURNAL", "metdata");
  Result<JournalMode> mode = BenchJournalMode();
  ASSERT_FALSE(mode.ok());
  EXPECT_NE(mode.status().message().find("SOLROS_JOURNAL: bad value "
                                         "\"metdata\""),
            std::string::npos)
      << mode.status().ToString();
}

// InitBench's false return is what makes a bench exit with status 2.
TEST(BenchEnvTest, InitBenchRefusesMalformedKnobs) {
  char arg0[] = "bench";
  char* argv[] = {arg0, nullptr};
  EXPECT_TRUE(InitBench(1, argv));
  {
    ScopedEnv env("SOLROS_JOURNAL", "metdata");
    EXPECT_FALSE(InitBench(1, argv));
  }
  {
    char flag[] = "--trace-sample=16x";
    char* with_flag[] = {arg0, flag, nullptr};
    EXPECT_FALSE(InitBench(2, with_flag));
  }
  {
    ScopedEnv env("SOLROS_FAULTS", "bogus=1");
    EXPECT_FALSE(InitBench(1, argv));
  }
  ScopedEnv env("SOLROS_PROXY_SHARDS", "abc");
  EXPECT_FALSE(InitBench(1, argv));
}

TEST(BenchEnvTest, TraceSampleKnobRejectsNonDecimal) {
  EXPECT_EQ(ParseTraceSample("16").value(), 16u);
  for (std::string bad : {"", "0", "x", "16x", "-1", " 16"}) {
    Result<uint64_t> n = ParseTraceSample(bad);
    ASSERT_FALSE(n.ok()) << bad;
    EXPECT_NE(n.status().message().find("--trace-sample: bad value \"" +
                                        bad + '"'),
              std::string::npos)
        << n.status().ToString();
  }
}

TEST(BenchEnvTest, FaultsKnobRejectsUnknownPointsAndBadTriggers) {
  FaultRegistry registry;
  EXPECT_TRUE(registry.ConfigureFromEnv().ok());
  EXPECT_FALSE(registry.any_armed());
  {
    ScopedEnv env("SOLROS_FAULTS", "nvme.cmd.timeout=0.01,seed=11");
    ASSERT_TRUE(registry.ConfigureFromEnv().ok());
    EXPECT_TRUE(registry.GetPoint("nvme.cmd.timeout")->armed());
  }
  for (std::string bad :
       {"bogus=1", "nvme.cmd.timout=0.01", "nvme.cmd.timeout=lots"}) {
    ScopedEnv env("SOLROS_FAULTS", bad);
    FaultRegistry fresh;
    Status status = fresh.ConfigureFromEnv();
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.message().find("SOLROS_FAULTS: bad value \"" + bad + '"'),
              std::string::npos)
        << status.ToString();
    EXPECT_FALSE(fresh.any_armed()) << bad;
  }
}

TEST(FaultsEnvDeathTest, DefaultRegistryRefusesMalformedPreset) {
  // Threadsafe style re-executes the binary, so the child builds the
  // default registry afresh under the bad value.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv env("SOLROS_FAULTS", "bogus=1");
  EXPECT_DEATH(Faults(), "SOLROS_FAULTS: bad value \"bogus=1\"");
  ::testing::FLAGS_gtest_death_test_style = "fast";
}

}  // namespace
}  // namespace solros
