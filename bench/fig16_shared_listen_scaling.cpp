// E16 — shared listening socket scale-out (§4.4.3; reconstructed).
//
// Multiple co-processors listen on one port; the control-plane load
// balancer spreads incoming connections. Reports aggregate echo throughput
// and the per-co-processor distribution for 1..4 co-processors and all
// three forwarding policies.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "bench/net_workload.h"
#include "src/base/fault.h"
#include "src/sim/slo_watchdog.h"

using namespace solros;

namespace {

struct ScaleResult {
  double kmsgs_per_sec = 0;
  std::vector<uint64_t> per_phi_events;
};

ScaleResult Run(int num_phis, std::unique_ptr<ForwardingPolicy> policy) {
  MachineConfig config;
  config.num_phis = num_phis;
  config.nvme_capacity = MiB(64);
  config.policy = std::move(policy);
  Machine machine(std::move(config));

  const int kConns = 16;
  const int kPings = 60;
  for (int i = 0; i < num_phis; ++i) {
    Spawn(machine.sim(),
          BenchEchoServer(&machine.net_stub(i), 9000, kConns));
  }
  machine.sim().RunUntilIdle();

  Processor client_cpu(&machine.sim(), machine.host_device(), 64, 1.0,
                       "client");
  Histogram latencies;
  WaitGroup wg(&machine.sim());
  SimTime t0 = machine.sim().now();
  for (int c = 0; c < kConns; ++c) {
    wg.Add(1);
    Spawn(machine.sim(),
          PingPongClient(&machine.ethernet(), &client_cpu,
                         0x0a000000u + static_cast<uint32_t>(c), 9000,
                         kPings, 64, &machine.sim(), &latencies, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);

  ScaleResult result;
  result.kmsgs_per_sec =
      (uint64_t{kConns} * kPings) / ToSeconds(machine.sim().now() - t0) /
      1e3;
  for (int i = 0; i < num_phis; ++i) {
    result.per_phi_events.push_back(machine.net_stub(i).events_dispatched());
  }
  return result;
}

std::string Distribution(const std::vector<uint64_t>& events) {
  std::string out;
  for (size_t i = 0; i < events.size(); ++i) {
    out += std::to_string(events[i]);
    if (i + 1 < events.size()) {
      out += "/";
    }
  }
  return out;
}

// Connection storm under tail-based trace sampling (--trace-sample=N /
// SOLROS_TRACE_SAMPLE=N): 64 clients hammer a 2-co-processor shared
// listener while the tracer keeps only SLO-violating, faulted, or
// 1-in-N-hash traces. Proves retention is bounded (every span the tracer
// still holds is accounted for) and — with budgets armed, fault-free —
// that exactly the watchdog's violating requests were retained for the
// SLO reason.
void RunSamplingStorm() {
  const uint64_t sample_n = TraceSampleN();
  if (sample_n == 0) {
    return;
  }
  std::cout << "\n--- tail-sampled connection storm (keep 1-in-"
            << sample_n << " + SLO/error traces) ---\n";
  // Declared before the machine: coroutine frames owned by the simulator
  // hold ScopedSpans into the tracer. Sampling must switch on before the
  // first span is recorded.
  Tracer tracer;
  MaybeEnableTraceSampling(tracer);
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(64);
  MaybeEnableTelemetry(config);
  Machine machine(std::move(config));
  tracer.Bind(&machine.sim());
  std::unique_ptr<SloWatchdog> watchdog =
      MaybeArmSloWatchdog(&machine.sim(), &tracer);

  const int kConns = 64;
  const int kPings = 40;
  for (int i = 0; i < 2; ++i) {
    Spawn(machine.sim(),
          BenchEchoServer(&machine.net_stub(i), 9100, kConns / 2));
  }
  machine.sim().RunUntilIdle();
  Processor client_cpu(&machine.sim(), machine.host_device(), 64, 1.0,
                       "client");
  Histogram latencies;
  WaitGroup wg(&machine.sim());
  for (int c = 0; c < kConns; ++c) {
    wg.Add(1);
    Spawn(machine.sim(),
          PingPongClient(&machine.ethernet(), &client_cpu,
                         0x0a000000u + static_cast<uint32_t>(c), 9100,
                         kPings, 64, &machine.sim(), &latencies, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);

  const SamplerStats& stats = tracer.sampler_stats();
  // Boundedness: every root decided (nothing still staged), and the spans
  // the tracer holds are exactly the kept ones.
  CHECK_EQ(tracer.pending_traces(), size_t{0});
  CHECK_EQ(stats.spans_kept, static_cast<uint64_t>(tracer.spans().size()));
  // Retention: with budgets armed and no faults injected, the kept-for-SLO
  // traces are exactly the watchdog's violating requests.
  if (watchdog != nullptr && !Faults().any_armed()) {
    CHECK_EQ(stats.kept_slo, watchdog->violations());
  }
  if (watchdog != nullptr) {
    std::cout << watchdog->Summary() << "\n";
  }
  PrintSamplerSummary(tracer);
  AppendTelemetryReport("tail-sampled-storm", machine);
  if (!GetBenchFlags().trace_out.empty()) {
    CHECK_OK(tracer.ExportChromeTraceToFile(GetBenchFlags().trace_out));
    std::cout << "sampled trace written to " << GetBenchFlags().trace_out
              << " (open in ui.perfetto.dev)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E16 — shared listening socket scale-out (reconstructed)",
              "EuroSys'18 Solros §4.4.3: pluggable forwarding rules");
  TablePrinter table({"policy", "#phis", "kmsgs/s", "events per phi"});
  for (int phis : {1, 2, 4}) {
    ScaleResult rr = Run(phis, std::make_unique<RoundRobinPolicy>());
    table.AddRow({"round-robin", std::to_string(phis),
                  TablePrinter::Num(rr.kmsgs_per_sec, 1),
                  Distribution(rr.per_phi_events)});
  }
  for (int phis : {2, 4}) {
    ScaleResult ll = Run(phis, std::make_unique<LeastLoadedPolicy>());
    table.AddRow({"least-loaded", std::to_string(phis),
                  TablePrinter::Num(ll.kmsgs_per_sec, 1),
                  Distribution(ll.per_phi_events)});
    ScaleResult ch = Run(phis, std::make_unique<ContentHashPolicy>());
    table.AddRow({"content-hash", std::to_string(phis),
                  TablePrinter::Num(ch.kmsgs_per_sec, 1),
                  Distribution(ch.per_phi_events)});
  }
  EmitTable(table);
  std::cout << "\nshape: round-robin and least-loaded spread evenly; "
               "content-hash keeps client affinity (possibly uneven); "
               "throughput scales with co-processor count until the host "
               "proxy saturates.\n";
  RunSamplingStorm();
  FinishBench();
  return 0;
}
