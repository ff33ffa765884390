// E01b — Fig. 1(b): TCP latency CDF for 64-byte messages.
//
// "TCP latency: 64-byte message ... 7x higher 99th percentile latency"
// for the stock Xeon Phi versus Solros; Host and Phi-Solros curves nearly
// coincide because the proxy terminates TCP on host cores either way.
#include <iostream>

#include "bench/bench_util.h"
#include "bench/net_workload.h"

using namespace solros;

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 1(b) — TCP 64B message latency CDF",
              "EuroSys'18 Solros, Figure 1(b): Phi-Linux p99 ~7x Solros");
  const int kClients = 8;
  const int kPings = 400;

  Histogram host = MeasureNetLatency(NetConfigKind::kHost, 64, kClients,
                                     kPings);
  Histogram solros =
      MeasureNetLatency(NetConfigKind::kSolros, 64, kClients, kPings);
  Histogram phi_linux =
      MeasureNetLatency(NetConfigKind::kPhiLinux, 64, kClients, kPings);

  TablePrinter table({"percentile", "Host us", "Phi-Solros us",
                      "Phi-Linux us"});
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    table.AddRow({TablePrinter::Num(q * 100, 1),
                  Usec1(host.ValueAtQuantile(q)),
                  Usec1(solros.ValueAtQuantile(q)),
                  Usec1(phi_linux.ValueAtQuantile(q))});
  }
  EmitTable("64B round-trip latency percentiles", table);

  double p99_ratio = static_cast<double>(phi_linux.ValueAtQuantile(0.99)) /
                     static_cast<double>(solros.ValueAtQuantile(0.99));
  std::cout << "\np99 Phi-Linux / Phi-Solros = "
            << TablePrinter::Num(p99_ratio, 1) << "x (paper: ~7x)\n";
  std::cout << "samples per config: " << host.count() << "\n";
  FinishBench();
  return 0;
}
