// E18 — control-plane scalability (§6.3; reconstructed).
//
// The control-plane OS serves every data plane; this experiment storms it
// with small file-system RPCs (stat + 4 KB reads) from 1..4 co-processors
// with increasing per-co-processor concurrency and reports aggregate
// RPCs/second. The paper's point: one host-side proxy with fast cores
// scales across multiple data planes.
//
// The table also reports the device-side control-plane cost of each
// configuration — NVMe commands, doorbells and interrupts — because the
// host-side I/O scheduler's whole job is to keep that column flat while
// RPC concurrency grows. Two extra sections isolate it:
//   storm    4 phis x 8 workers of concurrent buffered reads over one
//            shared file region. Dedup + plugging must keep doorbells +
//            interrupts <= 100 at >= 182.95 kRPC/s (tools/trajectory.py).
//   shards   the same storm with the control plane sharded across 1, 2,
//            and 4 pinned host cores (proxy_shards); RPC/s must scale
//            >= 1.6x at 2 shards and >= 2.5x at 4 (tools/trajectory.py).
#include <iostream>

#include "bench/bench_util.h"
#include "bench/fs_workload.h"

using namespace solros;

namespace {

struct DeviceCost {
  uint64_t commands = 0;
  uint64_t doorbells = 0;
  uint64_t interrupts = 0;
};

DeviceCost SnapshotCost(const Machine& machine) {
  const NvmeDevice& nvme = const_cast<Machine&>(machine).nvme();
  return {nvme.commands_completed(), nvme.doorbells_rung(),
          nvme.interrupts_raised()};
}

DeviceCost CostSince(const Machine& machine, const DeviceCost& t0) {
  DeviceCost now = SnapshotCost(machine);
  return {now.commands - t0.commands, now.doorbells - t0.doorbells,
          now.interrupts - t0.interrupts};
}

struct RunStats {
  double krpcs = 0;
  DeviceCost cost;
};

MachineConfig StormConfig(int phis) {
  MachineConfig config;
  config.num_phis = phis;
  config.nvme_capacity = MiB(256);
  config.enable_network = false;
  return config;
}

// --- section 1: the original E18 matrix, now with device-cost columns ---

Task<void> StormWorker(FsStub* stub, DeviceId device, uint64_t ino, int ops,
                       uint64_t seed, WaitGroup* wg) {
  Prng prng(seed);
  DeviceBuffer buffer(device, KiB(4));
  for (int i = 0; i < ops; ++i) {
    if (i % 2 == 0) {
      auto stat = co_await stub->Stat("/storm");
      CHECK_OK(stat);
    } else {
      uint64_t offset = prng.NextBelow(MiB(16) / KiB(4)) * KiB(4);
      auto n = co_await stub->Read(ino, offset, MemRef::Of(buffer));
      CHECK_OK(n);
    }
  }
  wg->Done();
}

RunStats RunMatrix(int phis, int workers_per_phi) {
  Machine machine(StormConfig(phis));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);

  const int kOps = 40;
  WaitGroup wg(&machine.sim());
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  for (int p = 0; p < phis; ++p) {
    for (int w = 0; w < workers_per_phi; ++w) {
      wg.Add(1);
      Spawn(machine.sim(),
            StormWorker(&machine.fs_stub(p), machine.phi_device(p), *ino,
                        kOps, p * 1000 + w, &wg));
    }
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  RunStats stats;
  uint64_t rpcs = uint64_t{static_cast<uint64_t>(phis)} * workers_per_phi *
                  kOps;
  stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  stats.cost = CostSince(machine, c0);
  return stats;
}

void PrintMatrix() {
  TablePrinter table({"phis", "workers/phi", "kRPC/s", "nvme cmds",
                      "doorbells", "interrupts"});
  std::vector<int> worker_counts =
      BenchQuickMode() ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 16,
                                                                   61};
  std::vector<int> phi_counts =
      BenchQuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  // The matrix claim: more workers per phi never lowers aggregate RPC/s,
  // and neither do more phis at the same worker count. `below[w]` is the
  // previous phi count's row.
  std::vector<double> below(worker_counts.size(), 0);
  for (int phis : phi_counts) {
    double left = 0;  // this row's previous worker count
    for (size_t w = 0; w < worker_counts.size(); ++w) {
      RunStats s = RunMatrix(phis, worker_counts[w]);
      CHECK(s.krpcs >= left && s.krpcs >= below[w])
          << "kRPC/s fell at " << phis << " phis x " << worker_counts[w]
          << " workers/phi";
      left = below[w] = s.krpcs;
      table.AddRow({std::to_string(phis), std::to_string(worker_counts[w]),
                    TablePrinter::Num(s.krpcs, 1),
                    std::to_string(s.cost.commands),
                    std::to_string(s.cost.doorbells),
                    std::to_string(s.cost.interrupts)});
    }
  }
  EmitTable("RPC scalability (stat + 4KB random reads)", table);
}

// --- section 2: shared-region read storm through the I/O scheduler ---

// Reads `ops` consecutive 4KB blocks of `ino` starting at `start`.
Task<void> RegionReadWorker(FsStub* stub, DeviceId device, uint64_t ino,
                            uint64_t start, int ops, WaitGroup* wg) {
  DeviceBuffer buffer(device, KiB(4));
  for (int i = 0; i < ops; ++i) {
    auto n = co_await stub->Read(
        ino, start + uint64_t{static_cast<uint64_t>(i)} * KiB(4),
        MemRef::Of(buffer));
    CHECK_OK(n);
  }
  wg->Done();
}

RunStats RunSharedStorm() {
  constexpr int kPhis = 4;
  constexpr int kWorkers = 8;
  constexpr int kOps = 40;
  MachineConfig config = StormConfig(kPhis);
  MaybeEnableTelemetry(config);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);
  // Buffered mode: every 4KB read goes through the shared cache and the
  // scheduler, instead of P2P straight to phi memory.
  for (int p = 0; p < kPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
  }

  RunStats stats;
  WaitGroup wg(&machine.sim());
  // Report the storm itself, not the nvme-bound workload-file prep above.
  ResetTelemetry(machine);
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  for (int p = 0; p < kPhis; ++p) {
    for (int w = 0; w < kWorkers; ++w) {
      wg.Add(1);
      Spawn(machine.sim(),
            RegionReadWorker(&machine.fs_stub(p), machine.phi_device(p),
                             *ino, /*start=*/0, kOps, &wg));
    }
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t rpcs = uint64_t{kPhis} * kWorkers * kOps;
  stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  stats.cost = CostSince(machine, c0);
  AppendTelemetryReport("shared-storm/iosched-on", machine);
  return stats;
}

void PrintStorm() {
  RunStats on = RunSharedStorm();
  TablePrinter table({"config", "kRPC/s", "nvme cmds", "doorbells",
                      "interrupts"});
  table.AddRow({"iosched-on", TablePrinter::Num(on.krpcs, 1),
                std::to_string(on.cost.commands),
                std::to_string(on.cost.doorbells),
                std::to_string(on.cost.interrupts)});
  EmitTable("buffered read storm: 4 phis x 8 workers over one shared "
            "160KB region",
            table);
}

// --- section 3: proxy-shard scaling storm ---

struct ShardRun {
  RunStats stats;
  std::vector<uint64_t> per_shard_reqs;
};

ShardRun RunShardStorm(int shards) {
  constexpr int kPhis = 4;
  constexpr int kWorkers = 8;
  constexpr int kOps = 40;
  MachineConfig config = StormConfig(kPhis);
  config.proxy_shards = shards;
  // Testbed-shaped placement: phis across both sockets, matching the
  // shard cores (which stripe across sockets) and their DMA paths.
  config.phi_sockets = {0, 1, 0, 1};
  MaybeEnableTelemetry(config);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);
  // Buffered mode so every RPC runs the full per-shard stack (ring, cache
  // segment, scheduler) on the shard's pinned core.
  for (int p = 0; p < kPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
  }

  ShardRun run;
  // Two passes over distinct 160KB sub-regions per worker (the block-group
  // partition spreads the 32 streams across shards instead of collapsing
  // them onto one stripe). The first pass warms each shard's cache segment
  // from the SSD; only the second, hit-dominated pass is measured — the
  // control-plane cost is the point here, not the device.
  auto spawn_pass = [&](WaitGroup* wg) {
    for (int p = 0; p < kPhis; ++p) {
      for (int w = 0; w < kWorkers; ++w) {
        uint64_t id = uint64_t{static_cast<uint64_t>(p)} * kWorkers + w;
        wg->Add(1);
        Spawn(machine.sim(),
              RegionReadWorker(&machine.fs_stub(p), machine.phi_device(p),
                               *ino, id * kOps * KiB(4), kOps, wg));
      }
    }
  };
  WaitGroup warm(&machine.sim());
  spawn_pass(&warm);
  machine.sim().RunUntilIdle();
  CHECK_EQ(warm.outstanding(), 0u);

  std::vector<uint64_t> reqs0;
  for (int k = 0; k < machine.proxy_shards(); ++k) {
    reqs0.push_back(machine.fs_proxy_shard(k).stats().requests);
  }
  WaitGroup wg(&machine.sim());
  ResetTelemetry(machine);
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  spawn_pass(&wg);
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t rpcs = uint64_t{kPhis} * kWorkers * kOps;
  run.stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  run.stats.cost = CostSince(machine, c0);
  for (int k = 0; k < machine.proxy_shards(); ++k) {
    run.per_shard_reqs.push_back(
        machine.fs_proxy_shard(k).stats().requests - reqs0[k]);
  }
  AppendTelemetryReport("shard-storm/shards=" + std::to_string(shards),
                        machine);
  return run;
}

void PrintShardScaling() {
  TablePrinter table({"config", "kRPC/s", "speedup", "shard max/mean",
                      "nvme cmds"});
  double base = 0;
  for (int shards : {1, 2, 4}) {
    ShardRun run = RunShardStorm(shards);
    if (shards == 1) {
      base = run.stats.krpcs;
    }
    uint64_t total = 0;
    uint64_t hi = 0;
    for (uint64_t reqs : run.per_shard_reqs) {
      total += reqs;
      hi = std::max(hi, reqs);
    }
    double mean =
        static_cast<double>(total) / std::max<size_t>(run.per_shard_reqs.size(), 1);
    table.AddRow({"shards=" + std::to_string(shards),
                  TablePrinter::Num(run.stats.krpcs, 1),
                  TablePrinter::Num(run.stats.krpcs / base, 2),
                  TablePrinter::Num(mean > 0 ? hi / mean : 0, 2),
                  std::to_string(run.stats.cost.commands)});
  }
  EmitTable("proxy-shard scaling: same storm, control plane sharded "
            "across pinned cores",
            table);
  std::cout << "shape: RPC/s scales near-linearly with shards because each "
               "shard's full FS stack is serialized on its own pinned core; "
               "max/mean per-shard requests near 1.0 shows the inode-range "
               "+ block-group partition balancing the streams.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E18 — control-plane RPC scalability (reconstructed)",
              "EuroSys'18 Solros §6.3");
  PrintMatrix();
  PrintStorm();
  PrintShardScaling();
  std::cout << "\nshape: aggregate RPC/s never falls as data planes or "
               "per-plane concurrency grow (CHECKed over the matrix rows).\n";
  FinishBench();
  return 0;
}
