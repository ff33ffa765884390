// E15 — network streaming throughput (reconstructed; see DESIGN.md §2).
//
// One-way client->server streaming across message sizes and connection
// counts: Solros should approach the NIC/PCIe ceiling like the host, while
// the Phi-Linux stack saturates its slow cores first.
#include <iostream>

#include "bench/bench_util.h"
#include "bench/net_workload.h"

using namespace solros;

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E15 — TCP streaming throughput (reconstructed)",
              "EuroSys'18 Solros §4.4/§6");
  for (int connections : {1, 4, 16}) {
    TablePrinter table({"msg size", "Host GB/s", "Phi-Solros GB/s",
                        "Phi-Linux GB/s"});
    for (uint32_t size : {512u, 4096u, 16384u, 65536u, 262144u}) {
      int messages = size <= 16384u ? 120 : 40;
      table.AddRow(
          {HumanSize(size),
           GBps3(MeasureNetThroughput(NetConfigKind::kHost, size,
                                      connections, messages)),
           GBps3(MeasureNetThroughput(NetConfigKind::kSolros, size,
                                      connections, messages)),
           GBps3(MeasureNetThroughput(NetConfigKind::kPhiLinux, size,
                                      connections, messages))});
    }
    EmitTable(std::to_string(connections) + " connection(s)", table);
  }
  std::cout << "\nshape: Host scales with size/connections toward the "
               "wire; Solros tracks Host at 1 connection and caps near "
               "0.7 GB/s with more; Phi-Linux is CPU-bound on the "
               "co-processor's slow cores, under 0.1 GB/s.\n";
  FinishBench();
  return 0;
}
