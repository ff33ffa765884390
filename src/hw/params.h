// Calibrated hardware parameters for the simulated Solros testbed.
//
// Every constant is annotated with its provenance in the paper (EuroSys'18,
// Min et al.) or the referenced datasheet. Benchmarks and device models must
// take these from an HwParams instance rather than hard-coding numbers, so
// the calibration is auditable and ablatable in one place.
//
// The paper's machine (§6): two Xeon E5-2670 v3 sockets (24 physical cores
// each, 8 DMA channels), four Xeon Phi co-processors (61 cores / 244 hardware
// threads) on PCIe Gen 2 x16, an Intel 750 NVMe SSD (1.2 TB), and a client
// behind 100 Gbps Ethernet.
#ifndef SOLROS_SRC_HW_PARAMS_H_
#define SOLROS_SRC_HW_PARAMS_H_

#include <cstdint>

#include "src/base/units.h"

namespace solros {

struct HwParams {
  // -- PCIe links (paper §6: "maximum bandwidth from Xeon Phi to host is
  // 6.5GB/sec and the bandwidth in the other direction is 6.0GB/sec") ------
  double pcie_phi_up_bw = GBps(6.5);    // Phi -> host direction
  double pcie_phi_down_bw = GBps(6.0);  // host -> Phi direction
  // NVMe SSD on PCIe Gen 3 x4 (Intel 750 datasheet).
  double pcie_nvme_bw = GBps(3.2);
  // 100 Gbps NIC.
  double pcie_nic_bw = Gbps(100);
  // Host DRAM path for host-terminated transfers.
  double host_mem_bw = GBps(40);
  // QPI interconnect between sockets (§2: "approaching the bandwidth of the
  // QPI interconnect" for PCIe Gen4 ~31.5 GB/s; QPI 9.6 GT/s ~ 19.2 GB/s).
  double qpi_bw = GBps(19.2);
  // Propagation + protocol latency of one bulk transfer across the fabric.
  Nanos pcie_propagation = Nanoseconds(500);

  // Fig. 1(a): P2P across a NUMA boundary is capped because "a processor
  // relays PCIe packets to another processor across a QPI interconnect";
  // "the maximum throughput is capped at 300MB/sec".
  double cross_numa_p2p_bw = MBps(300);

  // -- DMA engines (Fig. 4 and §4.2.1) -------------------------------------
  // "a host-initiated data transfer is faster than a co-processor initiated
  // one — 2.3x for DMA": 6.0 GB/s vs 2.6 GB/s.
  double dma_bw_host = GBps(6.0);
  double dma_bw_phi = GBps(2.6);
  // DMA channel setup ("high latency for small data"); chosen so that the
  // 64 B ratios of §4.2.1 hold: DMA is 2.9x slower than memcpy on the host
  // and 12.6x slower on the Phi.
  Nanos dma_init_host = Microseconds(1);
  Nanos dma_init_phi = Microseconds(8);
  // "both a Xeon and Xeon Phi processor have eight DMA engines" (§5).
  int dma_channels = 8;

  // -- load/store (memcpy) over a system-mapped PCIe window (Fig. 4) -------
  // Each load/store issues a 64 B PCIe transaction (§4.2.1). The cost curve
  // is two-segment: write-combined posted writes sustain ~1.2 GB/s for the
  // first 64 KB, after which sustained streams throttle to the
  // per-transaction rate of Fig. 4(b) (~40 / 22 MB/s, host 1.8x faster).
  // The segment boundary and rates are solved from three paper anchors:
  // the 2.9x / 12.6x 64 B ratios vs DMA, the 1 KB / 16 KB adaptive copy
  // thresholds (§4.2.4), and the 150x / 116x DMA advantage at 8 MB.
  double memcpy_fast_bw = GBps(1.2);
  uint64_t memcpy_fast_region = KiB(64);
  double memcpy_stream_bw_host = MBps(40);
  double memcpy_stream_bw_phi = MBps(22);
  // 64 B memcpy latency; from §4.2.1's 2.9x / 12.6x ratios vs. DMA.
  Nanos memcpy_small_latency_host = Nanoseconds(345);
  Nanos memcpy_small_latency_phi = Nanoseconds(630);
  // A single remote load/store of a control variable (head/tail): one PCIe
  // round trip (§4.2.4 calls these "costly PCIe transactions").
  Nanos pcie_transaction_latency = Nanoseconds(600);

  // -- Adaptive copy thresholds (§4.2.4): "1 KB from a host and 16 KB from
  // Xeon Phi because of the longer initialization of the DMA channel". ----
  uint64_t adaptive_threshold_host = KiB(1);
  uint64_t adaptive_threshold_phi = KiB(16);

  // -- Processors -----------------------------------------------------------
  int host_sockets = 2;
  int host_cores_per_socket = 24;
  int phi_cores = 61;
  int phi_threads_per_core = 4;  // 244 hardware threads
  double host_core_speed = 1.0;
  // Lean in-order Phi core running branchy OS code (§3: I/O stacks are
  // "frequent control-flow divergent"); ~1/8 of a host core per thread.
  double phi_core_speed = 0.125;

  // -- NVMe SSD (Intel 750, §6: 2.4 GB/s seq read, 1.2 GB/s write) ---------
  double nvme_read_bw = GBps(2.4);
  double nvme_write_bw = GBps(1.2);
  Nanos nvme_read_latency = Microseconds(80);   // flash read access time
  Nanos nvme_write_latency = Microseconds(20);  // write-back buffered
  Nanos nvme_doorbell_cost = Nanoseconds(600);  // one MMIO write
  // Interrupt delivery + handler cost on the receiving CPU; §5 credits part
  // of Solros' win to "reducing the number of interrupts".
  Nanos nvme_interrupt_cost = Microseconds(4);
  // Flush command: drain the device's volatile write buffer to flash.
  // Consumer-NVMe flushes are tens of microseconds to milliseconds; 100us
  // keeps journal barriers visible in fig12 without dominating it.
  Nanos nvme_flush_latency = Microseconds(100);
  int nvme_queue_depth = 128;
  uint32_t nvme_block_size = 4096;

  // -- Network --------------------------------------------------------------
  double nic_bw = Gbps(100);
  Nanos nic_wire_latency = Microseconds(5);  // client <-> server one way
  // CPU cost to push one message through a full TCP/IP stack at reference
  // (host) speed; on a Phi thread this is divided by phi_core_speed, which
  // yields the 7x-ish p99 gap of Fig. 1(b). Split into a per-message fixed
  // part (syscall, softirq, socket wakeup) and a per-segment part.
  Nanos tcp_message_cpu = Microseconds(5);
  Nanos tcp_segment_cpu = Microseconds(2);
  // Thin data-plane stub cost per socket call (§4.4: "a one-to-one mapping
  // with a socket system call").
  Nanos net_stub_cpu = Nanoseconds(500);
  // Control-plane proxy cost per RPC message.
  Nanos net_proxy_cpu = Microseconds(1);

  // -- File-system stacks ----------------------------------------------------
  // Full-fledged FS per syscall at reference speed (lookup, page cache,
  // block mapping). Fig. 13(a): the Solros stub "spends 5x less time than a
  // full-fledged file system on the Xeon Phi".
  Nanos fs_full_call_cpu = Microseconds(3);
  Nanos fs_stub_cpu = Nanoseconds(600);
  Nanos fs_proxy_cpu = Microseconds(2);
  // virtio-style block relay: per-request kernel round trip on host + one
  // interrupt per request ("An interrupt signal is designated for
  // notification of virtblk", §6.1.2).
  Nanos virtio_request_cpu = Microseconds(5);
  // Host-side CPU relay copy bandwidth for the virtio data path (Fig. 13(a)
  // "CPU-based copy in virtio").
  double virtio_copy_bw = MBps(120);
  // NFS per-call protocol cost and maximum transfer unit.
  Nanos nfs_call_cpu = Microseconds(20);
  uint64_t nfs_transfer_unit = KiB(64);

  // -- Fault model / recovery (no paper provenance: operational constants
  // for the injection layer; all are no-ops unless a fault point is armed) --
  // Device-side command timeout charged when `nvme.cmd.timeout` fires: the
  // command occupies its queue slot for this long, then completes kTimedOut.
  Nanos nvme_timeout = Milliseconds(1);
  // Extra latency charged to a transfer when `hw.fabric.stall` fires
  // (transient link-level retraining / replay storm).
  Nanos pcie_stall_latency = Microseconds(50);
  // Extra latency charged to a ring send/receive when a transport stall
  // point fires (consumer descheduled, producer preempted).
  Nanos ring_stall_latency = Microseconds(20);

  // -- Ring-buffer / RPC ------------------------------------------------------
  // Local enqueue/dequeue CPU cost (combining amortizes atomics; §4.2.3).
  Nanos rb_op_cpu = Nanoseconds(150);

  // Returns parameters as used by most experiments.
  static HwParams Default() { return HwParams{}; }
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_PARAMS_H_
