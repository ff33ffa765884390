// Fault-injection matrix: every injection point crossed with several fault
// rates over full-system workloads. The contract under test is "no silent
// corruption": every operation either succeeds with verifiable data or
// fails with a clean Status — and at moderate rates the recovery layers
// (stub retries, block-store resubmission, P2P-to-buffered degradation)
// absorb the faults so the workload completes.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/kv_store.h"
#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/base/prng.h"
#include "src/core/machine.h"
#include "src/fs/io_scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// Every test arms the process-wide registry; make sure no state leaks into
// (or out of) a test even when assertions fail early.
class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Faults().DisarmAll();
    MetricRegistry::Default().ResetAll();
  }
  void TearDown() override { Faults().DisarmAll(); }
};

void FillBlock(std::vector<uint8_t>& block, uint64_t seed) {
  Prng prng(seed);
  for (auto& b : block) {
    b = static_cast<uint8_t>(prng.Next());
  }
}

struct WorkloadOutcome {
  bool completed = true;       // every op eventually reported success
  bool corrupted = false;      // an op reported success but data was wrong
  std::string detail;
  Nanos end_time = 0;          // sim time when the workload finished
};

// Writes kBlocks distinct blocks (mixing aligned and unaligned offsets so
// both the P2P and the buffered/DMA data paths run), re-writing on clean
// failure, then reads everything back. A block whose write never reported
// success is exempt from the readback check (its content is legitimately
// ambiguous under at-least-once retry); everything else must match
// byte-for-byte.
Task<void> FsWorkload(Machine* machine, WorkloadOutcome* out, WaitGroup* wg) {
  constexpr int kBlocks = 24;
  constexpr size_t kBlockSize = KiB(64);
  FsStub& fs = machine->fs_stub(0);

  auto ino = co_await fs.Create("/matrix");
  if (!ino.ok() && ino.code() == ErrorCode::kAlreadyExists) {
    // At-least-once namespace retry: the first create landed, the replay
    // observed it. Recover the inode via open.
    ino = co_await fs.Open("/matrix");
  }
  if (!ino.ok()) {
    out->completed = false;
    out->detail = "create: " + ino.status().ToString();
    wg->Done();
    co_return;
  }

  DeviceBuffer buffer(machine->phi_device(0), kBlockSize);
  std::vector<uint8_t> expected(kBlockSize);
  std::vector<bool> verified(kBlocks, false);

  auto offset_of = [](int block) -> uint64_t {
    // Blocks are laid out with a 4 KiB gap so the unaligned variants never
    // overlap a neighbour; odd blocks start 512 bytes in, forcing the
    // buffered data path while even blocks take P2P.
    uint64_t base =
        uint64_t{static_cast<uint64_t>(block)} * (kBlockSize + KiB(4));
    return (block % 2 == 1) ? base + 512 : base;
  };

  for (int block = 0; block < kBlocks; ++block) {
    FillBlock(expected, 1000 + block);
    std::memcpy(buffer.data(), expected.data(), kBlockSize);
    bool landed = false;
    for (int attempt = 0; attempt < 6 && !landed; ++attempt) {
      auto n = co_await fs.Write(*ino, offset_of(block), MemRef::Of(buffer));
      landed = n.ok() && *n == kBlockSize;
    }
    verified[block] = landed;  // only verifiable if a write reported success
    if (!landed) {
      out->completed = false;
    }
  }

  DeviceBuffer readback(machine->phi_device(0), kBlockSize);
  for (int block = 0; block < kBlocks; ++block) {
    if (!verified[block]) {
      continue;
    }
    FillBlock(expected, 1000 + block);
    bool read_ok = false;
    for (int attempt = 0; attempt < 6 && !read_ok; ++attempt) {
      auto n = co_await fs.Read(*ino, offset_of(block), MemRef::Of(readback));
      if (!n.ok()) {
        continue;  // clean failure: retry
      }
      read_ok = true;
      if (*n != kBlockSize ||
          std::memcmp(readback.data(), expected.data(), kBlockSize) != 0) {
        out->corrupted = true;
        out->detail = "silent corruption at block " + std::to_string(block);
      }
    }
    if (!read_ok) {
      out->completed = false;
    }
  }
  wg->Done();
}

// Builds a fresh machine, formats the FS fault-free, then invokes
// `arm_faults` (may be empty) and runs the workload against the armed
// registry. Formatting under fire is not part of the contract under test.
WorkloadOutcome RunFsWorkload(
    const std::function<void()>& arm_faults = {}) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  if (arm_faults) {
    arm_faults();
  }

  WorkloadOutcome out;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), FsWorkload(&machine, &out, &wg));
  machine.sim().RunUntilIdle();
  EXPECT_EQ(wg.outstanding(), 0u);
  out.end_time = machine.sim().now();
  return out;
}

struct MatrixCell {
  const char* point;
  double rate;
  // At moderate rates every recovery layer has headroom, so completion is
  // required, not just integrity.
  bool require_completion;
};

std::string CellName(const MatrixCell& cell) {
  return std::string(cell.point) + " @ " + std::to_string(cell.rate);
}

constexpr const char* kAllPoints[] = {
    "nvme.cmd.fail",        "nvme.cmd.timeout",
    "hw.dma.error",         "hw.fabric.stall",
    "transport.ring.send_stall", "transport.ring.recv_stall",
    "rpc.drop.request",     "rpc.drop.response",
    "rpc.corrupt.request",  "rpc.corrupt.response",
    "iosched.stall",
};

TEST_F(FaultMatrixTest, ModerateRatesCompleteWithIntegrity) {
  for (const char* point : kAllPoints) {
    MatrixCell cell{point, 0.01, true};
    SCOPED_TRACE(CellName(cell));
    Faults().DisarmAll();
    WorkloadOutcome out = RunFsWorkload([&] {
      Faults().set_seed(17);
      CHECK_OK(Faults().Arm(cell.point, FaultSpec::Probability(cell.rate)));
    });
    EXPECT_FALSE(out.corrupted) << out.detail;
    EXPECT_TRUE(out.completed) << out.detail;
  }
}

TEST_F(FaultMatrixTest, HighRatesNeverCorruptSilently) {
  for (const char* point : kAllPoints) {
    MatrixCell cell{point, 0.10, false};
    SCOPED_TRACE(CellName(cell));
    Faults().DisarmAll();
    WorkloadOutcome out = RunFsWorkload([&] {
      Faults().set_seed(29);
      CHECK_OK(Faults().Arm(cell.point, FaultSpec::Probability(cell.rate)));
    });
    // Completion is not guaranteed at 10%, silence is still forbidden.
    EXPECT_FALSE(out.corrupted) << out.detail;
  }
}

TEST_F(FaultMatrixTest, CombinedFaultsStillNoSilentCorruption) {
  WorkloadOutcome out = RunFsWorkload([] {
    Faults().set_seed(31);
    CHECK_OK(
        Faults().Configure("nvme.cmd.fail=0.02,hw.dma.error=0.02,"
                           "rpc.drop.response=0.02,rpc.corrupt.request=0.02"));
  });
  EXPECT_FALSE(out.corrupted) << out.detail;
}

// I/O scheduler stall point, pinned at certainty: every dispatch round
// stalls, so unplug timers routinely fire while the dispatcher is parked in
// the stall. The plugged queue must still drain — the workload completes
// with full integrity, no hang, no lost waiters — and the stall counter
// proves the point actually fired inside the scheduler.
TEST_F(FaultMatrixTest, SchedulerStallDrainsPluggedRequests) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  Faults().set_seed(23);
  ASSERT_TRUE(
      Faults().Arm("iosched.stall", FaultSpec::Probability(1.0)).ok());

  WorkloadOutcome out;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), FsWorkload(&machine, &out, &wg));
  machine.sim().RunUntilIdle();
  Faults().DisarmAll();

  EXPECT_EQ(wg.outstanding(), 0u) << "scheduler hung with waiters parked";
  EXPECT_TRUE(out.completed) << out.detail;
  EXPECT_FALSE(out.corrupted) << out.detail;
  IoScheduler* sched = machine.fs_proxy().io_scheduler();
  EXPECT_GT(sched->stalls(), 0u);
  EXPECT_EQ(sched->queued(), 0u);
}

TEST_F(FaultMatrixTest, IdenticalSeedsGiveIdenticalSimTimes) {
  auto run = [](uint64_t seed) {
    Faults().DisarmAll();
    MetricRegistry::Default().ResetAll();
    return RunFsWorkload([seed] {
      Faults().set_seed(seed);
      CHECK_OK(
          Faults().Arm("nvme.cmd.timeout", FaultSpec::Probability(0.02)));
      CHECK_OK(
          Faults().Arm("rpc.drop.response", FaultSpec::Probability(0.02)));
    });
  };
  WorkloadOutcome a = run(99);
  WorkloadOutcome b = run(99);
  EXPECT_FALSE(a.corrupted);
  EXPECT_EQ(a.end_time, b.end_time)
      << "same fault seed must replay the same simulated execution";
  // A different seed lands faults at different commands; the schedule (and
  // with it the sim-time outcome) is allowed — and expected — to differ.
  WorkloadOutcome c = run(1234);
  EXPECT_FALSE(c.corrupted);
  EXPECT_NE(a.end_time, c.end_time);
}

// The ISSUE acceptance preset: 1% NVMe timeouts plus 1% DMA errors; the
// workload must complete with verified checksums and the recovery counters
// must show the machinery actually engaged.
TEST_F(FaultMatrixTest, AcceptancePresetCompletesWithRetries) {
  WorkloadOutcome out = RunFsWorkload([] {
    CHECK_OK(
        Faults().Configure("nvme.cmd.timeout=0.01,hw.dma.error=0.01,seed=11"));
  });
  EXPECT_FALSE(out.corrupted) << out.detail;
  EXPECT_TRUE(out.completed) << out.detail;
  uint64_t recoveries =
      MetricRegistry::Default().GetCounter("nvme.store.retries")->value() +
      MetricRegistry::Default().GetCounter("fs.proxy.dma_retries")->value() +
      MetricRegistry::Default().GetCounter("fs.stub.retries")->value() +
      MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded")->value();
  EXPECT_GT(recoveries, 0u)
      << "faults were armed and the workload survived, yet no recovery "
         "counter moved — injection points are not wired up";
}

// Degradation path, pinned deterministically: with block-store resubmission
// disabled, the first NVMe timeout inside a P2P read surfaces to the proxy,
// which must fall back to buffered staging and still return correct bytes.
TEST_F(FaultMatrixTest, P2pDegradesToBufferedOnNvmeTimeout) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.nvme_retry.max_attempts = 1;  // store passes faults straight up
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/degrade"));
  ASSERT_TRUE(ino.ok());

  std::vector<uint8_t> expected(KiB(256));
  FillBlock(expected, 7);
  DeviceBuffer src(machine.phi_device(0), expected.size());
  std::memcpy(src.data(), expected.data(), expected.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  // Fire exactly once, on the very next NVMe command: the P2P read's first
  // batch. (EveryNth(1) would also sink the buffered fallback's commands.)
  ASSERT_TRUE(Faults().Arm("nvme.cmd.timeout", FaultSpec::OneShot()).ok());
  DeviceBuffer dst(machine.phi_device(0), expected.size());
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  Faults().DisarmAll();

  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, expected.size());
  EXPECT_EQ(std::memcmp(dst.data(), expected.data(), expected.size()), 0);
  EXPECT_GT(machine.fs_proxy().stats().degraded_reads, 0u);
  EXPECT_GT(
      MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded")->value(),
      0u);
}

// The write side of the same degradation: the first NVMe timeout inside a
// P2P write surfaces to the proxy, which rewrites the range through the
// buffered path. It counts as a degraded write, not a degraded read.
TEST_F(FaultMatrixTest, P2pWriteDegradesToBufferedOnNvmeTimeout) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.nvme_retry.max_attempts = 1;  // store passes faults straight up
  // The journal defers a pure-mtime update, so the overwrite below issues
  // no metadata command ahead of its data.
  config.journal_mode = JournalMode::kMetadata;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/degrade_write"));
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> expected(KiB(256));
  DeviceBuffer src(machine.phi_device(0), expected.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  // Overwrite the allocated range; the fault fires exactly once, on the
  // P2P write's first NVMe command.
  FillBlock(expected, 11);
  std::memcpy(src.data(), expected.data(), expected.size());
  const FsProxyStats& stats = machine.fs_proxy().stats();
  const uint64_t p2p_writes = stats.p2p_writes;
  Counter* degraded =
      MetricRegistry::Default().GetCounter("fs.proxy.p2p_degraded");
  const uint64_t degraded_before = degraded->value();
  ASSERT_TRUE(Faults().Arm("nvme.cmd.timeout", FaultSpec::OneShot()).ok());
  auto written = RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src)));
  Faults().DisarmAll();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(*written, expected.size());
  EXPECT_EQ(stats.p2p_writes, p2p_writes + 1);
  EXPECT_EQ(stats.degraded_writes, 1u);
  EXPECT_EQ(stats.degraded_reads, 0u);
  EXPECT_EQ(degraded->value(), degraded_before + 1);

  DeviceBuffer dst(machine.phi_device(0), expected.size());
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, expected.size());
  EXPECT_EQ(std::memcmp(dst.data(), expected.data(), expected.size()), 0);
}

// A machine with one file of kBytes written through P2P, so nothing of it
// is cached and a read goes to the device.
struct SampledRig {
  static constexpr uint64_t kBytes = KiB(256);
  Tracer tracer;  // outlives the machine (frames hold ScopedSpans)
  std::unique_ptr<Machine> machine;
  uint64_t ino = 0;

  explicit SampledRig(MachineConfig config) {
    config.num_phis = 1;
    config.nvme_capacity = MiB(64);
    config.enable_network = false;
    machine = std::make_unique<Machine>(std::move(config));
    CHECK_OK(RunSim(machine->sim(), machine->FormatFs()));
    auto created = RunSim(machine->sim(), stub().Create("/sampled"));
    CHECK_OK(created);
    ino = *created;
    DeviceBuffer src(machine->phi_device(0), kBytes);
    CHECK_OK(RunSim(machine->sim(), stub().Write(ino, 0, MemRef::Of(src))));
    // Sample from here on, keeping no trace by hash: only a flag keeps one.
    tracer.Bind(&machine->sim());
    tracer.EnableSampling(/*keep_one_in=*/0);
    MetricRegistry::Default().ResetAll();
  }

  FsStub& stub() { return machine->fs_stub(0); }

  // Reads the file with `point` armed once; the read must succeed.
  void ReadWithOneFault(const char* point) {
    ASSERT_TRUE(Faults().Arm(point, FaultSpec::OneShot()).ok());
    DeviceBuffer dst(machine->phi_device(0), kBytes);
    auto n = RunSim(machine->sim(), stub().Read(ino, 0, MemRef::Of(dst)));
    Faults().DisarmAll();
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, kBytes);
  }

  uint64_t Count(const char* counter) {
    return MetricRegistry::Default().GetCounter(counter)->value();
  }

  // Exactly one trace, the read's, was kept, flagged as an error.
  void ExpectOnlyTheReadKept() {
    const SamplerStats& stats = tracer.sampler_stats();
    EXPECT_EQ(stats.traces_kept, 1u);
    EXPECT_EQ(stats.kept_error, 1u);
    EXPECT_EQ(stats.kept_hash, 0u);
    EXPECT_EQ(tracer.pending_traces(), 0u);
  }

  bool KeptSpan(const std::string& name) {
    for (const SpanRecord& span : tracer.spans()) {
      if (span.name == name) {
        return true;
      }
    }
    return false;
  }
};

// A fault that the block store absorbs by resubmitting the NVMe batch
// keeps the request's trace, though the read succeeds at every layer above.
TEST_F(FaultMatrixTest, BlockStoreResubmissionKeepsItsTraceUnderSampling) {
  SampledRig rig{MachineConfig{}};
  rig.ReadWithOneFault("nvme.cmd.timeout");
  EXPECT_EQ(rig.Count("nvme.store.retries"), 1u);
  EXPECT_EQ(rig.Count("fs.proxy.p2p_degraded"), 0u);
  EXPECT_EQ(rig.Count("fs.stub.retries"), 0u);
  rig.ExpectOnlyTheReadKept();
}

// A P2P read that times out and is re-served host-staged keeps its whole
// trace: the proxy's service span and the device command that failed.
TEST_F(FaultMatrixTest, P2pDegradationKeepsItsTraceUnderSampling) {
  MachineConfig config;
  config.nvme_retry.max_attempts = 1;  // store passes faults straight up
  SampledRig rig(std::move(config));
  rig.ReadWithOneFault("nvme.cmd.timeout");
  EXPECT_EQ(rig.Count("fs.proxy.p2p_degraded"), 1u);
  EXPECT_EQ(rig.Count("fs.stub.retries"), 0u);
  rig.ExpectOnlyTheReadKept();
  EXPECT_TRUE(rig.KeptSpan("fs.proxy.service"));
  EXPECT_TRUE(rig.KeptSpan("nvme.cmd"));
}

// A buffered read whose host DMA to the co-processor fails once and is
// reissued keeps its trace.
TEST_F(FaultMatrixTest, StagingDmaRetryKeepsItsTraceUnderSampling) {
  SampledRig rig{MachineConfig{}};
  rig.stub().set_buffered(true);
  rig.ReadWithOneFault("hw.dma.error");
  EXPECT_EQ(rig.Count("fs.proxy.dma_retries"), 1u);
  EXPECT_EQ(rig.Count("nvme.store.retries"), 0u);
  EXPECT_EQ(rig.Count("fs.stub.retries"), 0u);
  rig.ExpectOnlyTheReadKept();
}

// A request frame lost on the ring times out the stub's first attempt; the
// retry succeeds and the trace is kept.
TEST_F(FaultMatrixTest, FsStubRetryKeepsItsTraceUnderSampling) {
  SampledRig rig{MachineConfig{}};
  rig.ReadWithOneFault("rpc.drop.request");
  EXPECT_EQ(rig.Count("fs.stub.retries"), 1u);
  EXPECT_EQ(rig.Count("nvme.store.retries"), 0u);
  rig.ExpectOnlyTheReadKept();
}

// Benign errors (kNotFound on a bad path) keep no trace: the sampler keeps
// system failures, not expected outcomes.
TEST_F(FaultMatrixTest, BenignErrorsKeepNoTraceUnderSampling) {
  SampledRig rig{MachineConfig{}};
  EXPECT_EQ(RunSim(rig.machine->sim(), rig.stub().Open("/missing")).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(rig.tracer.sampler_stats().traces_kept, 0u);
  EXPECT_EQ(rig.tracer.sampler_stats().traces_dropped, 1u);
  EXPECT_TRUE(rig.tracer.spans().empty());
}

// Tail-based sampling keeps a failed FS request's trace, as it keeps a
// failed net request's. The hash keeps no trace here, so only the error
// flag can retain it.
TEST_F(FaultMatrixTest, FailedFsReadTraceIsKeptUnderSampling) {
  Tracer tracer;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.nvme_retry.max_attempts = 1;  // store passes faults straight up
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/sampled"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer src(machine.phi_device(0), KiB(64));
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  tracer.Bind(&machine.sim());
  tracer.EnableSampling(/*keep_one_in=*/0);
  // The P2P write left nothing cached: the buffered read misses, and every
  // NVMe command it issues fails.
  stub.set_buffered(true);
  ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::EveryNth(1)).ok());
  DeviceBuffer dst(machine.phi_device(0), KiB(64));
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  Faults().DisarmAll();
  EXPECT_FALSE(n.ok());
  EXPECT_GT(machine.fs_proxy().stats().buffered_reads, 0u);

  const SamplerStats& stats = tracer.sampler_stats();
  EXPECT_GE(stats.kept_error, 1u);
  EXPECT_EQ(stats.kept_hash, 0u);
}

// Network checksum workload: a KV server behind the TCP proxy while the RPC
// control plane drops and corrupts frames. Every Put/Get round trip
// verifies its value, so a single silently lost or mangled byte fails.
TEST_F(FaultMatrixTest, NetworkWorkloadSurvivesRpcFaults) {
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(64);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));

  Faults().set_seed(43);
  ASSERT_TRUE(Faults()
                  .Configure("rpc.drop.request=0.05,rpc.drop.response=0.05,"
                             "rpc.corrupt.response=0.05")
                  .ok());

  std::vector<std::unique_ptr<KvServer>> shards;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<KvServer>(
        &machine.sim(), &machine.net_stub(i), static_cast<uint32_t>(i)));
    shards.back()->Start(7300, 8);
  }
  machine.sim().RunUntilIdle();

  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  KvClient client(&machine.sim(), &machine.ethernet(), &client_cpu,
                  0x0a000001);
  bool ok = true;
  std::string detail;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(),
        [](KvClient* c, bool* ok, std::string* detail,
           WaitGroup* w) -> Task<void> {
          Status connected = co_await c->Connect(7300, 2);
          if (!connected.ok()) {
            *ok = false;
            *detail = "connect: " + connected.ToString();
            w->Done();
            co_return;
          }
          for (int i = 0; i < 40 && *ok; ++i) {
            std::string key = "key" + std::to_string(i);
            *detail = "in flight: " + key;
            std::vector<uint8_t> value(96);
            FillBlock(value, 4000 + i);
            if (!(co_await c->Put(key, value)).ok()) {
              *ok = false;
              *detail = "put " + key + " failed";
              break;
            }
            auto got = co_await c->Get(key);
            if (!got.ok() || *got != value) {
              *ok = false;
              *detail = "get " + key + " mismatch";
              break;
            }
          }
          co_await c->Close();
          w->Done();
        }(&client, &ok, &detail, &wg));

  machine.sim().RunUntilIdle();
  if (wg.outstanding() != 0) {
    machine.DumpStats(std::cerr);
  }
  EXPECT_EQ(wg.outstanding(), 0u) << detail;
  EXPECT_TRUE(ok) << detail;
  EXPECT_GT(machine.tcp_proxy().stats().inbound_messages, 0u);
}

// Zero-overhead contract: with nothing armed, a faulted-build workload must
// take exactly the same simulated time as it always has — i.e. two plain
// runs agree, and every fault counter stays at zero.
TEST_F(FaultMatrixTest, DisarmedRunsAreIdenticalAndCounterFree) {
  WorkloadOutcome a = RunFsWorkload();
  WorkloadOutcome b = RunFsWorkload();
  EXPECT_TRUE(a.completed);
  EXPECT_FALSE(a.corrupted);
  EXPECT_EQ(a.end_time, b.end_time);
  for (const char* counter :
       {"nvme.store.retries", "fs.stub.retries", "fs.proxy.dma_retries",
        "fs.proxy.p2p_degraded", "net.stub.retries",
        "rpc.dropped_requests", "rpc.dropped_responses"}) {
    EXPECT_EQ(MetricRegistry::Default().GetCounter(counter)->value(), 0u)
        << counter;
  }
}

}  // namespace
}  // namespace solros
