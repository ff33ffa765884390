// File-system workloads: fs_cold_rw (device, cache eviction, write-back,
// journal, P2P DMA) and fs_hot_rpc (control-plane RPC over a cache-resident
// region). Both drive the FsStub API of a full Machine in a closed loop and
// check every byte they read.
#include <memory>
#include <vector>

#include "perfbench/common.h"
#include "src/base/prng.h"
#include "src/sim/sync.h"

namespace perfbench {

using namespace solros;

namespace {

// Per-operation bookkeeping shared by the worker tasks of one repetition.
struct FsRun {
  Simulator* sim = nullptr;
  Samples samples;

  void Record(bool good, SimTime t0, uint64_t bytes,
              std::vector<uint64_t>* kind, bool victim) {
    if (!good) {
      return;  // failed: the run counts planned minus completed operations
    }
    const uint64_t latency = sim->now() - t0;
    ++samples.ok;
    samples.payload_bytes += bytes;
    samples.all.push_back(latency);
    kind->push_back(latency);
    if (victim) {
      samples.victim.push_back(latency);
    }
  }
};

bool ReadMatches(const Result<uint64_t>& n, const DeviceBuffer& buffer,
                 uint64_t length, uint64_t offset, int64_t version) {
  return n.ok() && *n == length &&
         BlocksVersion(buffer.Span(0, length), offset / kBlock) == version;
}

// ---------------------------------------------------------------------------
// fs_cold_rw
// ---------------------------------------------------------------------------

constexpr int kColdPhis = 4;
constexpr uint64_t kColdFileBytes = MiB(512);   // 4x the 128 MiB cache
constexpr uint64_t kColdWriteBytes = MiB(64);   // phi0's write file
constexpr uint64_t kColdWarmPerPhi = MiB(56);   // 3 phis: fills the cache
constexpr uint64_t kColdWarmChunk = MiB(1);
constexpr int kFloodWorkers = 8;
constexpr int kFloodOps = 1600;
constexpr int kVictimWorkersPerPhi = 4;
constexpr int kVictimOps = 2400;
constexpr uint64_t kP2pReadBytes = KiB(128);
constexpr uint64_t kWriteChunk = KiB(64);
constexpr uint64_t kVictimReadBytes = KiB(4);
constexpr int kFsyncEvery = 8;

// Phi0 flood worker: large P2P reads of the cold file; buffered writes and
// read-backs of its own slice of the write file, fsync every kFsyncEvery
// operations. One writer per slice, so the expected version of every chunk
// is exact.
Task<void> FloodWorker(FsRun* run, FsStub* stub, DeviceId device,
                       uint64_t cold_ino, uint64_t write_ino, int worker,
                       uint64_t seed, WaitGroup* wg) {
  Prng prng(seed);
  DeviceBuffer buffer(device, kP2pReadBytes);
  constexpr uint64_t kSliceChunks = kColdWriteBytes / kWriteChunk / kFloodWorkers;
  std::vector<uint32_t> versions(kSliceChunks, 0);
  const uint64_t slice_base =
      static_cast<uint64_t>(worker) * kSliceChunks * kWriteChunk;
  for (int i = 0; i < kFloodOps; ++i) {
    const uint64_t roll = prng.NextBelow(8);
    const SimTime t0 = run->sim->now();
    if (roll < 5) {
      const uint64_t offset =
          prng.NextBelow(kColdFileBytes / kP2pReadBytes) * kP2pReadBytes;
      auto n = co_await stub->Read(cold_ino, offset, MemRef::Of(buffer));
      run->Record(ReadMatches(n, buffer, kP2pReadBytes, offset, 0), t0,
                  kP2pReadBytes, &run->samples.read, false);
    } else {
      const uint64_t chunk = prng.NextBelow(kSliceChunks);
      const uint64_t offset = slice_base + chunk * kWriteChunk;
      const MemRef ref = MemRef::Of(buffer, 0, kWriteChunk);
      if (roll < 7) {
        const uint32_t version = versions[chunk] + 1;
        FillBlocks(buffer.Span(0, kWriteChunk), offset / kBlock, version);
        auto n = co_await stub->Write(write_ino, offset, ref);
        const bool good = n.ok() && *n == kWriteChunk;
        if (good) {
          versions[chunk] = version;
        }
        run->Record(good, t0, kWriteChunk, &run->samples.write, false);
      } else {
        auto n = co_await stub->Read(write_ino, offset, ref);
        run->Record(ReadMatches(n, buffer, kWriteChunk, offset,
                                versions[chunk]),
                    t0, kWriteChunk, &run->samples.read, false);
      }
    }
    if ((i + 1) % kFsyncEvery == 0) {
      const SimTime f0 = run->sim->now();
      const Status status = co_await stub->Fsync(write_ino);
      run->Record(status.ok(), f0, 0, &run->samples.fsync, false);
    }
  }
  wg->Done();
}

// Victim worker: small buffered random reads of the cold file.
Task<void> ColdVictimWorker(FsRun* run, FsStub* stub, DeviceId device,
                            uint64_t ino, uint64_t seed, WaitGroup* wg) {
  Prng prng(seed);
  DeviceBuffer buffer(device, kVictimReadBytes);
  for (int i = 0; i < kVictimOps; ++i) {
    const uint64_t offset =
        prng.NextBelow(kColdFileBytes / kVictimReadBytes) * kVictimReadBytes;
    const SimTime t0 = run->sim->now();
    auto n = co_await stub->Read(ino, offset, MemRef::Of(buffer));
    run->Record(ReadMatches(n, buffer, kVictimReadBytes, offset, 0), t0,
                kVictimReadBytes, &run->samples.read, true);
  }
  wg->Done();
}

// Sequential buffered reads that stage [start, start+bytes) into the cache.
Task<void> WarmWorker(FsStub* stub, DeviceId device, uint64_t ino,
                      uint64_t start, uint64_t bytes, uint64_t chunk,
                      uint64_t* failures, WaitGroup* wg) {
  DeviceBuffer buffer(device, chunk);
  for (uint64_t offset = start; offset < start + bytes; offset += chunk) {
    auto n = co_await stub->Read(ino, offset, MemRef::Of(buffer));
    if (!ReadMatches(n, buffer, chunk, offset, 0)) {
      ++*failures;
    }
  }
  wg->Done();
}

// Opens `path` on `stub` (buffered when asked), counting a failure.
uint64_t OpenOrFail(Simulator& sim, FsStub& stub, const std::string& path,
                    bool buffered, uint64_t* failures) {
  auto ino = RunSim(sim, buffered ? stub.OpenBuffered(path) : stub.Open(path));
  if (!ino.ok()) {
    ++*failures;
    return 0;
  }
  return *ino;
}

}  // namespace

Rep RunFsColdRw(const RepOptions& options) {
  Rep rep;
  const double t_start = HostSeconds();
  // Declared before the machine: coroutine frames parked in the simulator
  // hold spans into the tracer.
  std::unique_ptr<Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<Tracer>();
  }
  MachineConfig config;
  config.num_phis = kColdPhis;
  config.proxy_shards = 1;
  config.enable_network = false;
  config.journal_mode = JournalMode::kMetadata;
  static bool printed = false;
  PrintConfigOnce(&printed,
                  "fs_cold_rw phis=4 proxy_shards=1 nvme=2GiB journal=metadata "
                  "cache=128MiB iosched=on cold_file=512MiB write_file=64MiB "
                  "flood=8x1600 ops (5/8 p2p 128KiB read, 2/8 buffered 64KiB "
                  "write, 1/8 read-back, fsync/8) victims=3x4x2400 buffered "
                  "4KiB reads, warm=3x56MiB");

  double t = HostSeconds();
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  rep.host["core.build_s"] = HostSeconds() - t;

  uint64_t setup_failures = 0;
  t = HostSeconds();
  if (!RunSim(sim, machine.FormatFs()).ok()) {
    ++setup_failures;
  }
  rep.host["fs.format_s"] = HostSeconds() - t;

  t = HostSeconds();
  auto cold = RunSim(sim, PrepareFile(&machine.fs(), "/cold", kColdFileBytes));
  auto wfile = RunSim(sim, PrepareFile(&machine.fs(), "/cold_w", kColdWriteBytes));
  setup_failures += (cold.ok() ? 0 : 1) + (wfile.ok() ? 0 : 1);
  // Phi0 reads the cold file P2P and writes its own file buffered; victims
  // read the cold file buffered.
  const uint64_t flood_cold =
      OpenOrFail(sim, machine.fs_stub(0), "/cold", false, &setup_failures);
  const uint64_t flood_write =
      OpenOrFail(sim, machine.fs_stub(0), "/cold_w", true, &setup_failures);
  std::vector<uint64_t> victim_ino(kColdPhis, 0);
  for (int p = 1; p < kColdPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
    victim_ino[p] =
        OpenOrFail(sim, machine.fs_stub(p), "/cold", true, &setup_failures);
  }
  rep.host["fs.prepare_s"] = HostSeconds() - t;

  FsRun run;
  run.sim = &sim;
  t = HostSeconds();
  {
    WaitGroup wg(&sim);
    for (int p = 1; p < kColdPhis; ++p) {
      wg.Add(1);
      Spawn(sim, WarmWorker(&machine.fs_stub(p), machine.phi_device(p),
                            victim_ino[p], (p - 1) * kColdWarmPerPhi,
                            kColdWarmPerPhi,
                            kColdWarmChunk, &setup_failures, &wg));
    }
    sim.RunUntilIdle();
    setup_failures += wg.outstanding();
  }
  rep.host["fs.warm_s"] = HostSeconds() - t;
  rep.host["setup_s"] = HostSeconds() - t_start;
  rep.probe_mid_s = ProbeSeconds();

  const Probe before = TakeProbe(machine, false);
  if (tracer != nullptr) {
    tracer->Bind(&sim);
  }
  const double w0 = HostSeconds();
  const SimTime t0 = sim.now();
  WaitGroup wg(&sim);
  for (int w = 0; w < kFloodWorkers; ++w) {
    wg.Add(1);
    Spawn(sim, FloodWorker(&run, &machine.fs_stub(0), machine.phi_device(0),
                           flood_cold, flood_write, w,
                           options.seed * 1000003 + w, &wg));
  }
  for (int p = 1; p < kColdPhis; ++p) {
    for (int w = 0; w < kVictimWorkersPerPhi; ++w) {
      wg.Add(1);
      Spawn(sim, ColdVictimWorker(&run, &machine.fs_stub(p),
                                  machine.phi_device(p), victim_ino[p],
                                  options.seed * 1000003 + p * 100 + w, &wg));
    }
  }
  const uint64_t events = sim.RunUntilIdle();
  rep.host["wall_s"] = HostSeconds() - w0;
  const Nanos elapsed = sim.now() - t0;

  constexpr uint64_t kPlanned =
      uint64_t{kFloodWorkers} * (kFloodOps + kFloodOps / kFsyncEvery) +
      uint64_t{kColdPhis - 1} * kVictimWorkersPerPhi * kVictimOps;
  rep.attempted = kPlanned + setup_failures;
  rep.failed = kPlanned - run.samples.ok + setup_failures;
  RecordMetrics(before, TakeProbe(machine, false), run.samples, elapsed,
                events, &rep);
  if (tracer != nullptr) {
    RecordStages(*tracer, &rep);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// fs_hot_rpc
// ---------------------------------------------------------------------------

namespace {

constexpr int kHotPhis = 4;
constexpr int kHotShards = 4;
constexpr int kHotWorkers = 8;  // per phi
constexpr int kHotOps = 1600;   // per worker
constexpr uint64_t kHotFileBytes = MiB(16);
constexpr uint64_t kHotReadBytes = KiB(4);
constexpr uint64_t kHotWarmChunk = KiB(64);
constexpr uint64_t kHotStatOneIn = 16;

// Closed-loop storm worker: 4 KiB reads of random cache-resident blocks,
// with one Stat of the file in kHotStatOneIn operations. Stat is the light
// (victim) class; it reads its directory block from the device on every
// call, so it is kept rare enough that NVMe stays nearly idle.
Task<void> HotWorker(FsRun* run, FsStub* stub, DeviceId device, uint64_t ino,
                     uint64_t seed, WaitGroup* wg) {
  Prng prng(seed);
  DeviceBuffer buffer(device, kHotReadBytes);
  for (int i = 0; i < kHotOps; ++i) {
    const SimTime t0 = run->sim->now();
    if (prng.NextBelow(kHotStatOneIn) == 0) {
      auto stat = co_await stub->Stat("/hot");
      run->Record(stat.ok() && stat->ino == ino && stat->size == kHotFileBytes,
                  t0, 0, &run->samples.stat, true);
    } else {
      const uint64_t offset =
          prng.NextBelow(kHotFileBytes / kHotReadBytes) * kHotReadBytes;
      auto n = co_await stub->Read(ino, offset, MemRef::Of(buffer));
      run->Record(ReadMatches(n, buffer, kHotReadBytes, offset, 0), t0,
                  kHotReadBytes, &run->samples.read, false);
    }
  }
  wg->Done();
}

}  // namespace

Rep RunFsHotRpc(const RepOptions& options) {
  Rep rep;
  const double t_start = HostSeconds();
  std::unique_ptr<Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<Tracer>();
  }
  MachineConfig config;
  config.num_phis = kHotPhis;
  config.proxy_shards = kHotShards;
  config.phi_sockets = {0, 1, 0, 1};
  config.nvme_capacity = MiB(256);
  config.enable_network = false;
  static bool printed = false;
  PrintConfigOnce(&printed,
                  "fs_hot_rpc phis=4 phi_sockets=0,1,0,1 proxy_shards=4 "
                  "nvme=256MiB journal=off cache=128MiB iosched=on "
                  "file=16MiB warm=whole file, workers=4x8x1600 "
                  "(1/16 stat, rest buffered 4KiB reads)");

  double t = HostSeconds();
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  rep.host["core.build_s"] = HostSeconds() - t;

  uint64_t setup_failures = 0;
  t = HostSeconds();
  if (!RunSim(sim, machine.FormatFs()).ok()) {
    ++setup_failures;
  }
  rep.host["fs.format_s"] = HostSeconds() - t;

  t = HostSeconds();
  auto hot = RunSim(sim, PrepareFile(&machine.fs(), "/hot", kHotFileBytes));
  setup_failures += hot.ok() ? 0 : 1;
  std::vector<uint64_t> ino(kHotPhis, 0);
  for (int p = 0; p < kHotPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
    ino[p] = OpenOrFail(sim, machine.fs_stub(p), "/hot", true, &setup_failures);
  }
  rep.host["fs.prepare_s"] = HostSeconds() - t;

  // Warm: every phi stages a quarter of the file, so every block is cached
  // on the shard that owns it before the storm.
  FsRun run;
  run.sim = &sim;
  t = HostSeconds();
  {
    WaitGroup wg(&sim);
    const uint64_t share = kHotFileBytes / kHotPhis;
    for (int p = 0; p < kHotPhis; ++p) {
      wg.Add(1);
      Spawn(sim, WarmWorker(&machine.fs_stub(p), machine.phi_device(p),
                            ino[p], p * share, share, kHotWarmChunk,
                            &setup_failures, &wg));
    }
    sim.RunUntilIdle();
    setup_failures += wg.outstanding();
  }
  rep.host["fs.warm_s"] = HostSeconds() - t;
  rep.host["setup_s"] = HostSeconds() - t_start;
  rep.probe_mid_s = ProbeSeconds();

  const Probe before = TakeProbe(machine, false);
  if (tracer != nullptr) {
    tracer->Bind(&sim);
  }
  const double w0 = HostSeconds();
  const SimTime t0 = sim.now();
  WaitGroup wg(&sim);
  for (int p = 0; p < kHotPhis; ++p) {
    for (int w = 0; w < kHotWorkers; ++w) {
      wg.Add(1);
      Spawn(sim, HotWorker(&run, &machine.fs_stub(p), machine.phi_device(p),
                           ino[p], options.seed * 1000003 + p * 100 + w, &wg));
    }
  }
  const uint64_t events = sim.RunUntilIdle();
  rep.host["wall_s"] = HostSeconds() - w0;
  const Nanos elapsed = sim.now() - t0;

  constexpr uint64_t kPlanned = uint64_t{kHotPhis} * kHotWorkers * kHotOps;
  rep.attempted = kPlanned + setup_failures;
  rep.failed = kPlanned - run.samples.ok + setup_failures;
  RecordMetrics(before, TakeProbe(machine, false), run.samples, elapsed,
                events, &rep);
  if (tracer != nullptr) {
    RecordStages(*tracer, &rep);
  }
  return rep;
}

}  // namespace perfbench
