// E04 — Fig. 4: PCIe transfer characteristics.
//
// "Bandwidth of bi-directional data transfer over PCIe between a host
// processor and a Xeon Phi co-processor. Bandwidth is significantly
// dependent on who initiates the transfer ... and transfer mechanism."
//
// Measures the simulated fabric + DMA/WindowCopier models end to end:
// for each transfer size, DMA and load/store (memcpy) copies initiated by
// the host and by the Phi. Expected anchors (§4.2.1): at 8 MB DMA beats
// memcpy by ~150x (host) / ~116x (Phi); at 64 B memcpy wins by ~2.9x /
// ~12.6x; host-initiated DMA is ~2.3x faster than Phi-initiated.
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/hw/dma.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

using namespace solros;

namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
};

// Measures one copy and returns bandwidth in bytes/sec.
double MeasureDma(uint64_t bytes, bool host_initiated) {
  Rig rig;
  DmaEngine dma(&rig.sim, &rig.fabric, rig.params,
                host_initiated ? rig.host : rig.phi);
  DeviceBuffer src(rig.host, bytes);
  DeviceBuffer dst(rig.phi, bytes);
  SimTime t0 = rig.sim.now();
  RunSim(rig.sim, dma.Copy(MemRef::Of(dst), MemRef::Of(src)));
  return RateBps(bytes, rig.sim.now() - t0);
}

double MeasureMemcpy(uint64_t bytes, bool host_initiated) {
  Rig rig;
  WindowCopier copier(&rig.sim, rig.params);
  DeviceBuffer src(rig.host, bytes);
  DeviceBuffer dst(rig.phi, bytes);
  SimTime t0 = rig.sim.now();
  RunSim(rig.sim, copier.Copy(MemRef::Of(dst), MemRef::Of(src),
                              host_initiated));
  return RateBps(bytes, rig.sim.now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("Fig. 4 — PCIe bandwidth: DMA vs load/store, by initiator",
              "EuroSys'18 Solros, Figure 4 and §4.2.1");

  std::vector<uint64_t> sizes = {64,      512,     KiB(1), KiB(4),
                                 KiB(16), KiB(64), MiB(1), MiB(4), MiB(8)};
  TablePrinter table({"size", "dma-host MB/s", "dma-phi MB/s",
                      "memcpy-host MB/s", "memcpy-phi MB/s"});
  for (uint64_t size : sizes) {
    table.AddRow({HumanSize(size),
                  TablePrinter::Num(MeasureDma(size, true) / 1e6, 1),
                  TablePrinter::Num(MeasureDma(size, false) / 1e6, 1),
                  TablePrinter::Num(MeasureMemcpy(size, true) / 1e6, 1),
                  TablePrinter::Num(MeasureMemcpy(size, false) / 1e6, 1)});
  }
  EmitTable("bandwidth by transfer size", table);

  double dma_h = MeasureDma(MiB(8), true);
  double dma_p = MeasureDma(MiB(8), false);
  double mc_h = MeasureMemcpy(MiB(8), true);
  double mc_p = MeasureMemcpy(MiB(8), false);
  std::cout << "\nanchors: 8MB dma/memcpy host=" << TablePrinter::Num(
                   dma_h / mc_h, 1)
            << "x (paper 150x), phi=" << TablePrinter::Num(dma_p / mc_p, 1)
            << "x (paper 116x)\n";
  std::cout << "         8MB host-vs-phi DMA = "
            << TablePrinter::Num(dma_h / dma_p, 2) << "x (paper 2.3x)\n";
  double l_dma_h = 64.0 / (MeasureDma(64, true) / 1e9);
  double l_mc_h = 64.0 / (MeasureMemcpy(64, true) / 1e9);
  double l_dma_p = 64.0 / (MeasureDma(64, false) / 1e9);
  double l_mc_p = 64.0 / (MeasureMemcpy(64, false) / 1e9);
  std::cout << "         64B memcpy-vs-DMA latency: host "
            << TablePrinter::Num(l_dma_h / l_mc_h, 1)
            << "x (paper 2.9x), phi "
            << TablePrinter::Num(l_dma_p / l_mc_p, 1)
            << "x (paper 12.6x)\n";
  FinishBench();
  return 0;
}
