// E14 — network latency vs message size (reconstructed; see DESIGN.md §2).
//
// The provided paper text truncates after Fig. 13; this experiment
// reconstructs the network-service latency microbenchmark implied by §4.4
// and the abstract's "7x [lower] 99th percentile latency": ping-pong
// latency percentiles across message sizes for Host / Phi-Solros /
// Phi-Linux.
#include <iostream>

#include "bench/bench_util.h"
#include "bench/net_workload.h"
#include "src/base/fault.h"

using namespace solros;

// Measured per-request net-stage attribution for one configuration: runs
// the ping-pong workload under a tracer and averages the per-trace
// breakdowns of the echo round trips (roots named net.client.op; control
// RPCs are excluded by `wire > 0`). In a fault-free run every trace is
// CHECKed exact: the net stages sum to the root span to the nanosecond.
static StageBreakdown MeasureNetBreakdownPanel(NetConfigKind kind,
                                               uint32_t size, int clients,
                                               int pings,
                                               const std::string& trace_out) {
  std::vector<StageBreakdown> breakdowns =
      MeasureNetStages(kind, size, clients, pings, trace_out);
  const bool clean_run = !Faults().any_armed();
  std::vector<StageBreakdown> round_trips;
  for (const StageBreakdown& b : breakdowns) {
    CHECK(b.net);
    if (clean_run) {
      CHECK(b.exact);
      CHECK_EQ(StageSum(b), b.total);
    }
    if (b.wire > 0) {  // not a control RPC (Listen/Accept/Close)
      round_trips.push_back(b);
    }
  }
  RecordStageMetrics(breakdowns);
  CHECK_EQ(round_trips.size(), static_cast<size_t>(clients) * pings);
  return MeanStages(round_trips);
}

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E14 — TCP ping-pong latency vs message size (reconstructed)",
              "EuroSys'18 Solros §4.4/§6 (abstract: 7x network service win)");
  const int kClients = 4;
  const int kPings = 250;
  TablePrinter table({"msg size", "Host p50/p99 us", "Solros p50/p99 us",
                      "Phi-Linux p50/p99 us", "p99 gap"});
  for (uint32_t size : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    Histogram host =
        MeasureNetLatency(NetConfigKind::kHost, size, kClients, kPings);
    Histogram solros =
        MeasureNetLatency(NetConfigKind::kSolros, size, kClients, kPings);
    Histogram phi =
        MeasureNetLatency(NetConfigKind::kPhiLinux, size, kClients, kPings);
    double gap = static_cast<double>(phi.ValueAtQuantile(0.99)) /
                 static_cast<double>(solros.ValueAtQuantile(0.99));
    table.AddRow(
        {HumanSize(size),
         Usec1(host.ValueAtQuantile(0.5)) + "/" +
             Usec1(host.ValueAtQuantile(0.99)),
         Usec1(solros.ValueAtQuantile(0.5)) + "/" +
             Usec1(solros.ValueAtQuantile(0.99)),
         Usec1(phi.ValueAtQuantile(0.5)) + "/" +
             Usec1(phi.ValueAtQuantile(0.99)),
         TablePrinter::Num(gap, 1) + "x"});
  }
  EmitTable(table);
  std::cout << "\nshape: Solros tracks Host closely at all sizes; the "
               "Phi-Linux gap is largest for small messages where "
               "per-segment stack CPU dominates.\n";

  // Measured per-request attribution at one representative size: each echo
  // round trip is one causally-linked trace whose stages sum to the
  // end-to-end span exactly (CHECKed above per trace, fault-free).
  std::cout << "\n--- measured per-request net-stage breakdown (4KB, "
               "avg us; stages sum to total exactly) ---\n";
  const uint32_t kPanelSize = 4096;
  const int kPanelPings = 50;
  TablePrinter panel({"config", "total", "wire", "proxy", "queue", "stub"});
  for (NetConfigKind kind :
       {NetConfigKind::kHost, NetConfigKind::kSolros,
        NetConfigKind::kPhiLinux}) {
    // --trace-out keeps the Solros config's full trace for inspection.
    const std::string trace_out = kind == NetConfigKind::kSolros
                                      ? GetBenchFlags().trace_out
                                      : std::string();
    StageBreakdown avg = MeasureNetBreakdownPanel(
        kind, kPanelSize, kClients, kPanelPings, trace_out);
    panel.AddRow({NetConfigName(kind), Usec1(avg.total), Usec1(avg.wire),
                  Usec1(avg.proxy), Usec1(avg.queue_wait),
                  Usec1(avg.stub)});
  }
  EmitTable(panel);
  std::cout << "\nshape: the Solros proxy column carries the host-side TCP "
               "work the Phi-Linux stack column pays on slow cores; wire "
               "time is identical across configs.\n";
  FinishBench();
  return 0;
}
