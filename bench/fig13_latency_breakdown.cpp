// E13 — Fig. 13: latency breakdown of the I/O sub-systems.
//
// (a) 512 KB random file read, Phi-virtio vs Phi-Solros, decomposed into
//     File system / Block+Transport / Storage. The paper: "our zero-copy
//     data transfer performed by the NVMe DMA engine is [far] faster than
//     the CPU-based copy in virtio, and our thin file system stub spends
//     5x less time than a full-fledged file system on the Xeon Phi."
// (b) 64 B TCP message, Phi-Linux vs Phi-Solros, decomposed into Network
//     stack / Proxy+Transport.
//
// Decomposition method for (a), Solros: every RPC carries a trace context
// from the stub through ring / proxy / cache / NVMe / DMA, so each request
// is one causally-linked span tree and the split is *measured per request*
// (src/sim/attribution.h):
//   File system = stub residual + proxy residual (CPU, cache staging)
//   Transport   = ring queue wait + host DMA copy
//   Storage     = nvme.batch device time
// Fault-free, the stages of every request sum to its end-to-end root span
// exactly — CHECKed below for each of the measured ops. The virtio panel has
// no RPC boundary and keeps the aggregate span-sum method: full-FS CPU
// (fs.stage.fullfs_cpu), the device stage of the whole loop, and the
// remainder.
// --trace-out=FILE exports the measured spans (per-request trees with flow
// arrows) as Chrome trace JSON; two identical runs produce byte-identical
// trace files. The per-stage distributions also land in the
// fs.stage.*_ns histograms (freshly reset, so --metrics shows only the
// measured window).
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "bench/fs_configs.h"
#include "bench/net_workload.h"
#include "src/base/fault.h"
#include "src/sim/attribution.h"
#include "src/sim/slo_watchdog.h"
#include "src/sim/trace.h"

using namespace solros;

namespace {

constexpr uint64_t kIoSize = KiB(512);

struct FsBreakdown {
  Nanos total;
  Nanos fs;         // file-system CPU (stub+proxy, or full FS on the Phi)
  Nanos storage;    // device stage
  Nanos transport;  // everything else (block relay / RPC+DMA path)
};

// Per-request stage attribution averaged over the measured ops (every
// contributing request is CHECKed exact in a clean run).
StageBreakdown MeasureSolrosRead() {
  Tracer tracer;  // outlives the machine: open pump spans stay harmless
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", MiB(64)));
  CHECK_OK(ino);
  DeviceBuffer target(machine.phi_device(0), kIoSize);
  // Bind after setup so spans cover only the measured loop; reset the stage
  // histograms so --metrics reports exactly this window.
  tracer.Bind(&machine.sim());
  ArmFlightRecorder(tracer);
  // Per-stage SLO budgets from SOLROS_SLO_STAGES, plus --slo-ns as the
  // total-latency budget. The watchdog evaluates every root span as it
  // closes and fires the flight recorder on a sustained violation streak.
  std::unique_ptr<SloWatchdog> watchdog =
      MaybeArmSloWatchdog(&machine.sim(), &tracer);
  MetricRegistry::Default().ResetHistograms();
  const int kOps = 16;
  for (int i = 0; i < kOps; ++i) {
    auto n = RunSim(machine.sim(),
                    machine.fs_stub(0).Read(*ino, i * kIoSize,
                                            MemRef::Of(target)));
    CHECK_OK(n);
  }
  const std::string& trace_out = GetBenchFlags().trace_out;
  if (!trace_out.empty()) {
    CHECK_OK(tracer.ExportChromeTraceToFile(trace_out));
    std::cout << "trace written to " << trace_out
              << " (open in ui.perfetto.dev)\n";
  }
  if (watchdog != nullptr) {
    std::cout << watchdog->Summary() << "\n";
  }
  // Per-request attribution: one breakdown per RPC, each exact (its stages
  // sum to the request's end-to-end span) in this fault-free run.
  std::vector<StageBreakdown> breakdowns = ComputeStageBreakdowns(tracer);
  CHECK_EQ(breakdowns.size(), static_cast<size_t>(kOps));
  // Exactness is a clean-run invariant: injected faults (SOLROS_FAULTS)
  // force retries whose overlapping spans legitimately clamp.
  const bool clean_run = !Faults().any_armed();
  if (clean_run) {
    for (const StageBreakdown& b : breakdowns) {
      CHECK(b.exact);
      CHECK_EQ(StageSum(b), b.total);
    }
  }
  RecordStageMetrics(breakdowns);
  return MeanStages(breakdowns);
}

FsBreakdown MeasureVirtioRead() {
  Tracer tracer;
  Machine machine(BenchMachine());
  VirtioBlockStore virtio(&machine.sim(), machine.params(), &machine.nvme(),
                          &machine.host_cpu(), &machine.phi_cpu(0));
  SolrosFs phi_fs(&virtio, &machine.sim());
  CHECK_OK(RunSim(machine.sim(), phi_fs.Format(1024)));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&phi_fs, "/work", MiB(64)));
  CHECK_OK(ino);
  LocalFsService service(machine.params(), &phi_fs, &machine.phi_cpu(0));
  DeviceBuffer target(machine.phi_device(0), kIoSize);
  tracer.Bind(&machine.sim());
  const int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    ScopedSpan op(&tracer, "bench", "fs.op");
    auto n = RunSim(machine.sim(),
                    service.Read(*ino, i * kIoSize, MemRef::Of(target)));
    CHECK_OK(n);
  }
  // No RPC boundary, so no trace ids: the whole measured loop goes through
  // one accumulator with the bench's fs.op spans as its roots.
  CHECK_EQ(tracer.CountSpans("fs.op"), static_cast<uint64_t>(kOps));
  StageAccumulator loop;
  for (const SpanRecord& span : tracer.spans()) {
    if (!span.open) {
      loop.Add(span.name, span.name == "fs.op", span.end - span.begin);
    }
  }
  StageBreakdown sums = loop.Finish(0);
  FsBreakdown out;
  out.total = sums.total / kOps;
  out.fs = tracer.TotalDuration("fs.stage.fullfs_cpu") / kOps;
  out.storage = sums.device / kOps;
  out.transport = out.total > out.fs + out.storage
                      ? out.total - out.fs - out.storage
                      : 0;
  return out;
}

void PrintFsPanel() {
  std::cout << "\n--- (a) 512KB random read breakdown (per op) ---\n";
  // Solros first: its stack retries through injected faults, so a
  // one-shot SOLROS_FAULTS probe lands here (and in the armed flight
  // recorder) instead of aborting the retry-less virtio baseline.
  StageBreakdown solros = MeasureSolrosRead();
  FsBreakdown virtio = MeasureVirtioRead();
  const Nanos solros_fs = solros.stub + solros.proxy;
  const Nanos solros_transport =
      solros.queue_wait + solros.iosched_wait + solros.copy_dma;
  TablePrinter table({"component", "Phi-virtio us", "Phi-Solros us"});
  table.AddRow({"File system", Usec1(virtio.fs), Usec1(solros_fs)});
  table.AddRow({"Block/Transport", Usec1(virtio.transport),
                Usec1(solros_transport)});
  table.AddRow({"Storage", Usec1(virtio.storage), Usec1(solros.device)});
  table.AddRow({"TOTAL", Usec1(virtio.total), Usec1(solros.total)});
  EmitTable(table);
  // The Solros column measured per request via causal trace attribution;
  // the finer six-stage split behind its three rows:
  TablePrinter stages({"solros stage (per-request)", "us"});
  stages.AddRow({"stub (syscall + framing)", Usec1(solros.stub)});
  stages.AddRow({"ring queue wait", Usec1(solros.queue_wait)});
  stages.AddRow({"io scheduler queue", Usec1(solros.iosched_wait)});
  stages.AddRow({"proxy (CPU + cache + metadata)", Usec1(solros.proxy)});
  stages.AddRow({"host DMA copy", Usec1(solros.copy_dma)});
  stages.AddRow({"NVMe device", Usec1(solros.device)});
  EmitTable(stages);
  std::cout << "fs-time ratio (virtio/solros): "
            << TablePrinter::Num(
                   static_cast<double>(virtio.fs) / solros_fs, 1)
            << "x (paper: stub ~5x cheaper); transfer ratio: "
            << TablePrinter::Num(static_cast<double>(virtio.transport) /
                                     std::max<Nanos>(solros_transport, 1),
                                 0)
            << "x (paper: DMA 171x vs CPU copy)\n";
}

void PrintNetPanel() {
  std::cout << "\n--- (b) 64B TCP latency breakdown (per round trip) ---\n";
  // Wire+client baseline: subtract a loopback-style floor measured on the
  // host configuration (its stack cost is known).
  Histogram host = MeasureNetLatency(NetConfigKind::kHost, 64, 1, 300);
  Histogram solros = MeasureNetLatency(NetConfigKind::kSolros, 64, 1, 300);
  Histogram phi_linux =
      MeasureNetLatency(NetConfigKind::kPhiLinux, 64, 1, 300);
  HwParams p;
  Nanos wire_floor = 2 * p.nic_wire_latency;  // request + reply propagation
  auto stack_of = [&](const Histogram& h) {
    uint64_t p50 = h.ValueAtQuantile(0.5);
    return p50 > wire_floor ? p50 - wire_floor : 0;
  };
  TablePrinter table({"component", "Phi-Linux us", "Phi-Solros us"});
  Nanos phi_stack = stack_of(phi_linux);
  Nanos solros_stack = stack_of(solros);
  table.AddRow({"Wire (client+propagation)", Usec1(wire_floor),
                Usec1(wire_floor)});
  table.AddRow({"Network stack + proxy/transport", Usec1(phi_stack),
                Usec1(solros_stack)});
  table.AddRow({"TOTAL p50", Usec1(phi_linux.ValueAtQuantile(0.5)),
                Usec1(solros.ValueAtQuantile(0.5))});
  EmitTable(table);
  std::cout << "host p50 (reference): "
            << Usec1(host.ValueAtQuantile(0.5)) << " us\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 13 — latency breakdown of I/O sub-systems",
              "EuroSys'18 Solros, Figure 13");
  PrintFsPanel();
  PrintNetPanel();
  FinishBench();
  return 0;
}
