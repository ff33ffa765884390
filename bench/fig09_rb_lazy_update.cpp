// E09 — Fig. 9: lazy vs eager control-variable update over PCIe.
//
// "Performance of Solros's ring buffer over PCIe with 64-byte elements.
// ... Our lazy update scheme, which replicates the control variables,
// improves the performance by 4x and 1.4x in each direction with decreased
// PCIe transactions."
//
// The same RingBuffer data structure runs inside the simulator; its remote
// control-variable transactions are priced by the calibrated PCIe model.
// Panel (a): master at the Phi, Phi produces, host pulls. Panel (b): the
// other direction. Concurrency = parallel sender/receiver task pairs.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/sync.h"
#include "src/transport/sim_ring.h"

using namespace solros;

namespace {

constexpr uint32_t kElement = 64;
constexpr int kMsgsPerTask = 400;

Task<void> Sender(SimRing* ring, int n, WaitGroup* wg) {
  std::vector<uint8_t> payload(kElement, 0x5a);
  for (int i = 0; i < n; ++i) {
    CHECK_OK(co_await ring->Send(payload));
  }
  wg->Done();
}

Task<void> Receiver(SimRing* ring, int n, WaitGroup* wg) {
  std::vector<uint8_t> message;
  for (int i = 0; i < n; ++i) {
    CHECK_OK(co_await ring->Receive(&message));
  }
  wg->Done();
}

struct Sample {
  double kops;
  uint64_t pcie_txns;
};

// phi_to_host: panel (a); otherwise panel (b).
Sample Run(bool phi_to_host, bool lazy, int tasks) {
  Simulator sim;
  HwParams params;
  PcieFabric fabric(&sim, params);
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu(&sim, host, 96, params.host_core_speed, "host");
  Processor phi_cpu(&sim, phi, 244, params.phi_core_speed, "phi");

  SimRingConfig config;
  config.capacity = MiB(1);
  config.lazy_update = lazy;
  if (phi_to_host) {
    // Master at the sender (Phi) — the paper's panel (a) placement.
    config.master_device = phi;
    config.producer_device = phi;
    config.consumer_device = host;
    config.producer_cpu = &phi_cpu;
    config.consumer_cpu = &host_cpu;
  } else {
    config.master_device = host;
    config.producer_device = host;
    config.consumer_device = phi;
    config.producer_cpu = &host_cpu;
    config.consumer_cpu = &phi_cpu;
  }
  SimRing ring(&sim, &fabric, params, config);

  // Producers outnumber consumers so the ring runs full — the regime where
  // control-variable traffic is on the consumer's critical path (the
  // paper's measurement loop keeps the buffer occupied the same way).
  int consumers = std::max(1, tasks / 4);
  uint64_t total = uint64_t{static_cast<uint64_t>(tasks)} * kMsgsPerTask;
  WaitGroup wg(&sim);
  for (int t = 0; t < tasks; ++t) {
    wg.Add(1);
    Spawn(sim, Sender(&ring, kMsgsPerTask, &wg));
  }
  uint64_t per_consumer = total / consumers;
  uint64_t remainder = total % consumers;
  for (int t = 0; t < consumers; ++t) {
    wg.Add(1);
    Spawn(sim, Receiver(&ring,
                        static_cast<int>(per_consumer +
                                         (t == 0 ? remainder : 0)),
                        &wg));
  }
  sim.RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  Sample sample;
  sample.kops = total / ToSeconds(sim.now()) / 1e3;
  sample.pcie_txns = ring.ring().producer_stats().remote_transactions() +
                     ring.ring().consumer_stats().remote_transactions();
  return sample;
}

void Panel(bool phi_to_host, const char* title) {
  TablePrinter table({"tasks", "lazy kops/s", "eager kops/s", "speedup",
                      "lazy PCIe txns", "eager PCIe txns"});
  for (int tasks : {1, 2, 4, 8, 16, 32, 61}) {
    Sample lazy = Run(phi_to_host, true, tasks);
    Sample eager = Run(phi_to_host, false, tasks);
    table.AddRow({std::to_string(tasks), TablePrinter::Num(lazy.kops, 1),
                  TablePrinter::Num(eager.kops, 1),
                  TablePrinter::Num(lazy.kops / eager.kops, 2),
                  std::to_string(lazy.pcie_txns),
                  std::to_string(eager.pcie_txns)});
  }
  EmitTable(title, table);
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 9 — ring buffer over PCIe: lazy vs eager head/tail",
              "EuroSys'18 Solros, Figure 9 (paper: 4x / 1.4x)");
  Panel(true, "(a) Xeon Phi -> Host (master at Phi, host pulls)");
  Panel(false, "(b) Host -> Xeon Phi (master at host)");
  std::cout << "\nmechanism: lazy replication refreshes a control variable "
               "once per combining batch instead of touching master-resident "
               "head/tail on every operation.\n";
  FinishBench();
  return 0;
}
