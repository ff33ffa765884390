// Machine builder: assembles a full Solros system.
//
// One call builds the paper's testbed (§6): a two-socket host, N Xeon
// Phi-class co-processors, an NVMe SSD, and a NIC on the PCIe fabric; on
// top of it the control-plane OS (file-system proxy, TCP proxy with a
// shared-listening-socket load balancer) and one data-plane OS per
// co-processor (file-system stub, network stub), wired by ring pairs placed
// per the paper's master-placement rules:
//   * FS RPC rings: masters at the co-processor (§4.3.1);
//   * network outbound ring: master at the co-processor; inbound ring:
//     master at the host (§4.4.1), so both sides' DMA engines pull.
//
// Scale note: the simulated SSD defaults to 2 GiB of real backing bytes
// (the paper's testbed had a 1.2 TB device and used 4 GB working files).
// The flash image and the cache arena are DeviceBuffers, whose bytes cost
// host memory only once the simulation writes them (src/hw/memory.h), so
// capacity is no longer what bounds a rig's RAM: the bytes a workload
// writes are. The benches keep 512 MB working files on 1–2 GiB devices to
// bound their run time; bandwidth ceilings are identical at any size, so
// every reported *shape* is unaffected.
#ifndef SOLROS_SRC_CORE_MACHINE_H_
#define SOLROS_SRC_CORE_MACHINE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/core/shard.h"
#include "src/fs/fs_proxy.h"
#include "src/fs/fs_stub.h"
#include "src/fs/nvme_block_store.h"
#include "src/fs/solros_fs.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/net/ethernet.h"
#include "src/net/load_balancer.h"
#include "src/net/net_options.h"
#include "src/net/net_stub.h"
#include "src/net/tcp_proxy.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_ring.h"

namespace solros {

struct MachineConfig {
  HwParams params = HwParams::Default();
  int num_phis = 1;
  // Socket placement (Fig. 1(a)'s cross-NUMA experiment moves these apart).
  int nvme_socket = 0;
  std::vector<int> phi_sockets;  // default: all on socket 0
  int nic_socket = 0;
  uint64_t nvme_capacity = GiB(2);

  FsProxy::Options fs_options;
  // Crash consistency: journal mode the FS is formatted with. Anything but
  // kOff also switches the NVMe store to the volatile-write-cache
  // durability model (real Flush commands, ordered barriers on fsync).
  JournalMode journal_mode = JournalMode::kOff;
  uint64_t journal_blocks = 0;  // 0 = kDefaultJournalBlocks
  // Recovery policies, consulted only while fault injection is armed.
  RpcRetryOptions rpc_retry;                 // FS and net stub calls
  NvmeBlockStore::RetryPolicy nvme_retry;    // block-store resubmission
  size_t rpc_ring_capacity = MiB(1);
  size_t outbound_ring_capacity = MiB(4);
  // §4.4.1 uses 128 MB; kept smaller by default because ring memory is
  // physically allocated per co-processor.
  size_t inbound_ring_capacity = MiB(8);

  bool enable_network = true;
  // Forwarding policy for shared listening sockets.
  std::unique_ptr<ForwardingPolicy> policy;  // default: round robin

  // Net data path (DESIGN.md §5.5): the plug window of the stub/proxy
  // rings. The default, 0, pushes every event on its own.
  NetPathOptions net_options;

  // Control-plane shards: each FsProxy/TcpProxy shard runs pinned to its
  // own dedicated host core with isolated state (cache segment, scheduler,
  // stream table / sockets); only the FS shard coordinator and the shared
  // listening socket stay shared. FS traffic partitions by inode range with
  // block-group striping, net traffic by connection hash. At most
  // kMaxProxyShards; 0 (the default) reads SOLROS_PROXY_SHARDS (fatal when
  // malformed, 1 when unset). One shard keeps every legacy name.
  int proxy_shards = 0;

  // USE telemetry: a non-zero window creates a TelemetryHub and binds it to
  // the simulator before any component is built, so every ring, DMA engine,
  // fabric link, NVMe queue, scheduler class, and proxy loop registers a
  // series. Zero (the default) keeps telemetry fully off — no series, no
  // recording, byte-identical timing either way.
  Nanos telemetry_window = 0;
  uint32_t telemetry_windows = 256;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Formats the file system (run once before FS work).
  Task<Status> FormatFs(uint64_t inode_count = 4096);

  // Prints every subsystem's counters (proxy decisions, cache hit rates,
  // NVMe doorbells/interrupts, ring traffic) — the observability surface
  // for examples and debugging.
  void DumpStats(std::ostream& os);

  Simulator& sim() { return sim_; }
  const HwParams& params() const { return config_.params; }
  PcieFabric& fabric() { return *fabric_; }
  Processor& host_cpu() { return *host_cpu_; }
  Processor& phi_cpu(int i) { return *phi_cpus_.at(i); }
  DeviceId phi_device(int i) const { return phi_devices_.at(i); }
  DeviceId host_device() const { return host_device_; }
  int num_phis() const { return config_.num_phis; }

  NvmeDevice& nvme() { return *nvme_; }
  NvmeBlockStore& store() { return *store_; }
  SolrosFs& fs() { return *fs_; }
  // Shard 0 (the designated barrier shard; the only shard at shards=1).
  FsProxy& fs_proxy() { return *fs_proxies_.front(); }
  FsProxy& fs_proxy_shard(int k) { return *fs_proxies_.at(k); }
  int proxy_shards() const { return proxy_shards_; }
  FsStub& fs_stub(int i) { return *fs_stubs_.at(i); }

  EthernetFabric& ethernet() { return *ethernet_; }
  TcpProxy& tcp_proxy() { return *tcp_proxy_; }
  NetStub& net_stub(int i) { return *net_stubs_.at(i); }

  // Top-`top_k` connections (by total bytes) from the proxy's conntrack
  // table as one JSON object; "" when the network plane is disabled.
  std::string ConntrackJson(size_t top_k) const;

  // Null unless config.telemetry_window > 0.
  TelemetryHub* telemetry() { return telemetry_.get(); }

 private:
  struct DataPlaneRings {
    // One FS ring pair per proxy shard (exactly one at shards=1, under
    // the legacy "fs.req{i}"/"fs.resp{i}" names).
    std::vector<std::unique_ptr<SimRing>> fs_request;
    std::vector<std::unique_ptr<SimRing>> fs_response;
    std::unique_ptr<SimRing> net_request;
    std::unique_ptr<SimRing> net_response;
    std::unique_ptr<SimRing> inbound;
    std::unique_ptr<SimRing> outbound;
  };

  MachineConfig config_;
  Simulator sim_;
  // Declared before every component so it is destroyed after them all —
  // components hold raw UseSeries pointers into the hub.
  std::unique_ptr<TelemetryHub> telemetry_;
  FsShardCoordinator fs_coordinator_;
  std::unique_ptr<PcieFabric> fabric_;
  DeviceId host_device_;
  DeviceId nvme_device_;
  DeviceId nic_device_;
  std::vector<DeviceId> phi_devices_;
  std::unique_ptr<Processor> host_cpu_;
  std::vector<std::unique_ptr<Processor>> phi_cpus_;
  int proxy_shards_ = 1;
  // Dedicated per-shard cores (outlive the proxies and rings bound to
  // them).
  std::unique_ptr<ShardSet> fs_shards_;
  std::unique_ptr<ShardSet> net_shards_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<NvmeBlockStore> store_;
  std::unique_ptr<SolrosFs> fs_;
  std::vector<std::unique_ptr<FsProxy>> fs_proxies_;
  std::vector<DataPlaneRings> rings_;
  std::vector<std::unique_ptr<FsStub>> fs_stubs_;
  std::unique_ptr<EthernetFabric> ethernet_;
  std::unique_ptr<TcpProxy> tcp_proxy_;
  std::vector<std::unique_ptr<NetStub>> net_stubs_;
};

}  // namespace solros

#endif  // SOLROS_SRC_CORE_MACHINE_H_
