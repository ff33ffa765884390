// E11 — Fig. 11: random-read throughput vs block size and thread count.
//
// "Throughput of random read operations on an NVMe SSD with a varying
// number of threads. Solros and the host show the maximum throughput of
// the SSD (2.4GB/sec). However, Xeon Phi with Linux kernel (virtio and
// NFS) has significantly lower throughput (around 200MB/sec)."
#include <iostream>

#include "bench/fs_configs.h"

using namespace solros;

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 11 — random READ throughput (SSD ceiling 2.4 GB/s)",
              "EuroSys'18 Solros, Figure 11; file scaled 4GB -> 512MB");
  RunFsFigure(/*is_write=*/false);
  std::cout << "\nshape: Host and Phi-Solros reach 2.3 GB/s of the SSD's "
               "2.4 at 1MB with 8 threads; virtio/NFS stay under 0.1 GB/s "
               "regardless of threads, and Phi-Solros is 26x the faster of "
               "them at 1MB with 8 threads (paper: 19x at 4MB).\n";
  FinishBench();
  return 0;
}
