// E12 — Fig. 12: random-write throughput vs block size and thread count.
//
// "Solros and the host show the maximum throughput of the SSD (1.2GB/sec).
// However, Xeon Phi with Linux kernel (virtio and NFS) shows significantly
// lower throughput (less than 100MB/sec)."
#include <iostream>

#include "bench/fs_configs.h"

using namespace solros;

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 12 — random WRITE throughput (SSD ceiling 1.2 GB/s)",
              "EuroSys'18 Solros, Figure 12; file scaled 4GB -> 512MB");
  RunFsFigure(/*is_write=*/true);
  std::cout << "\nshape: Host and Phi-Solros reach the SSD write ceiling "
               "at 8 threads x 1MB; virtio/NFS stay at or under a tenth of "
               "it (0.12 GB/s).\n";
  FinishBench();
  return 0;
}
