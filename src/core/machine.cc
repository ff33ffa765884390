#include "src/core/machine.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/sharding.h"

namespace solros {
namespace {

// Ring capacities per co-processor. §4.4.1 uses a 128 MB inbound ring; it is
// kept smaller here because ring memory is physically allocated per
// co-processor.
constexpr size_t kRpcRingCapacity = MiB(1);
constexpr size_t kOutboundRingCapacity = MiB(4);
constexpr size_t kInboundRingCapacity = MiB(8);
// The NVMe SSD and the NIC sit on host socket 0.
constexpr int kIoSocket = 0;

// Resolved shard count: explicit config wins, then SOLROS_PROXY_SHARDS,
// then 1. A malformed or out-of-range environment value is fatal.
int ResolveProxyShards(int configured) {
  if (configured > 0) {
    CHECK_LE(configured, kMaxProxyShards);
    return configured;
  }
  Result<int> shards = ProxyShardsFromEnv();
  CHECK_OK(shards);
  return *shards;
}

}  // namespace

Machine::Machine(MachineConfig config) : config_(std::move(config)) {
  const HwParams& params = config_.params;
  if (config_.telemetry_window > 0) {
    telemetry_ = std::make_unique<TelemetryHub>(config_.telemetry_window);
    sim_.set_telemetry(telemetry_.get());
  }
  proxy_shards_ = ResolveProxyShards(config_.proxy_shards);
  fabric_ = std::make_unique<PcieFabric>(&sim_, params);
  host_device_ = fabric_->HostDevice(0);

  if (config_.phi_sockets.empty()) {
    config_.phi_sockets.assign(config_.num_phis, 0);
  }
  CHECK_EQ(static_cast<int>(config_.phi_sockets.size()), config_.num_phis);

  // Host processor: both sockets' cores as one pool (the control plane may
  // run anywhere on the host).
  int host_threads = params.host_sockets * params.host_cores_per_socket * 2;
  host_cpu_ = std::make_unique<Processor>(&sim_, host_device_, host_threads,
                                          params.host_core_speed, "host-cpu");

  for (int i = 0; i < config_.num_phis; ++i) {
    DeviceId dev = fabric_->AddDevice(DeviceType::kPhi,
                                      config_.phi_sockets[i],
                                      "mic" + std::to_string(i));
    phi_devices_.push_back(dev);
    phi_cpus_.push_back(std::make_unique<Processor>(
        &sim_, dev, params.phi_cores * params.phi_threads_per_core,
        params.phi_core_speed, "phi-cpu" + std::to_string(i)));
  }

  // Dedicated control-plane cores, built BEFORE the proxies so each core
  // registers the "fs.proxy[k]"/"net.proxy[k]" series with capacity 1 (the
  // first registration fixes a series' capacity).
  fs_shards_ = std::make_unique<ShardSet>(&sim_, fabric_.get(), params,
                                          "fs.proxy", proxy_shards_);

  nvme_device_ = fabric_->AddDevice(DeviceType::kNvme, kIoSocket, "nvme0");
  nvme_ = std::make_unique<NvmeDevice>(&sim_, fabric_.get(), params,
                                       nvme_device_, config_.nvme_capacity,
                                       host_cpu_.get());
  store_ = std::make_unique<NvmeBlockStore>(nvme_.get(), host_cpu_.get());
  store_->set_retry_policy(config_.nvme_retry);
  // Journaling implies the realistic durability model: the device's write
  // cache is volatile and BlockStore::Flush issues real NVMe Flush
  // commands. With journaling off (the default) the store stays
  // write-through and every seed configuration is byte-identical.
  store_->set_volatile_write_cache(config_.journal_mode != JournalMode::kOff);
  fs_ = std::make_unique<SolrosFs>(store_.get(), &sim_);
  fs_->set_journal_mode(config_.journal_mode);

  for (int k = 0; k < proxy_shards_; ++k) {
    FsProxy::Options shard_options = config_.fs_options;
    if (proxy_shards_ > 1 && shard_options.cache_blocks > 0) {
      // The host cache is one budget split into per-shard segments.
      shard_options.cache_blocks = std::max<size_t>(
          1, shard_options.cache_blocks / static_cast<size_t>(proxy_shards_));
    }
    fs_proxies_.push_back(std::make_unique<FsProxy>(
        &sim_, fabric_.get(), params, fs_shards_->core(k), store_.get(),
        fs_.get(), shard_options,
        FsShardContext{k, proxy_shards_, fs_coordinator_}));
  }

  if (config_.enable_network) {
    nic_device_ = fabric_->AddDevice(DeviceType::kNic, kIoSocket, "nic0");
    ethernet_ = std::make_unique<EthernetFabric>(&sim_, params);
    std::unique_ptr<ForwardingPolicy> policy = std::move(config_.policy);
    if (policy == nullptr) {
      policy = std::make_unique<RoundRobinPolicy>();
    }
    net_shards_ = std::make_unique<ShardSet>(&sim_, fabric_.get(), params,
                                             "net.proxy", proxy_shards_);
    std::vector<Processor*> net_cores;
    net_cores.reserve(static_cast<size_t>(proxy_shards_));
    for (int k = 0; k < proxy_shards_; ++k) {
      net_cores.push_back(net_shards_->core(k));
    }
    tcp_proxy_ = std::make_unique<TcpProxy>(&sim_, params, ethernet_.get(),
                                            std::move(policy),
                                            std::move(net_cores),
                                            config_.net_options);
  }

  rings_.resize(config_.num_phis);
  for (int i = 0; i < config_.num_phis; ++i) {
    DataPlaneRings& rings = rings_[i];
    DeviceId phi = phi_devices_[i];
    Processor* phi_cpu = phi_cpus_[i].get();

    // `host_dev`/`host_proc` are the host-side port of the ring: the shard
    // core that owns the ring for FS pairs, the shared pool for net rings
    // (only TCP *processing* is sharded; ring pumping stays on the pool).
    auto make_ring = [&](const std::string& name, size_t capacity,
                         DeviceId master, bool phi_produces,
                         DeviceId host_dev, Processor* host_proc)
        -> std::unique_ptr<SimRing> {
      SimRingConfig rc;
      rc.name = name;
      rc.capacity = capacity;
      rc.master_device = master;
      rc.producer_device = phi_produces ? phi : host_dev;
      rc.consumer_device = phi_produces ? host_dev : phi;
      rc.producer_cpu = phi_produces ? phi_cpu : host_proc;
      rc.consumer_cpu = phi_produces ? host_proc : phi_cpu;
      return std::make_unique<SimRing>(&sim_, fabric_.get(), params, rc);
    };

    // FS RPC rings: masters at the co-processor (§4.3.1), one pair per
    // proxy shard, host port on the shard's dedicated core. At shards=1
    // the names stay the legacy "fs.req{i}"/"fs.resp{i}".
    std::vector<std::pair<SimRing*, SimRing*>> stub_rings;
    for (int k = 0; k < proxy_shards_; ++k) {
      const std::string suffix =
          proxy_shards_ > 1 ? ".s" + std::to_string(k) : "";
      Processor* shard_core = fs_shards_->core(k);
      rings.fs_request.push_back(
          make_ring("fs.req" + std::to_string(i) + suffix,
                    kRpcRingCapacity, phi, true,
                    shard_core->device(), shard_core));
      rings.fs_response.push_back(
          make_ring("fs.resp" + std::to_string(i) + suffix,
                    kRpcRingCapacity, phi, false,
                    shard_core->device(), shard_core));
      fs_proxies_[k]->Serve(rings.fs_request.back().get(),
                            rings.fs_response.back().get());
      stub_rings.emplace_back(rings.fs_request.back().get(),
                              rings.fs_response.back().get());
    }
    fs_stubs_.push_back(std::make_unique<FsStub>(
        &sim_, params, phi_cpu, std::move(stub_rings),
        static_cast<uint32_t>(i)));

    if (config_.enable_network) {
      rings.net_request =
          make_ring("net.req" + std::to_string(i), kRpcRingCapacity, phi,
                    true, host_device_, host_cpu_.get());
      rings.net_response =
          make_ring("net.resp" + std::to_string(i), kRpcRingCapacity, phi,
                    false, host_device_, host_cpu_.get());
      // Outbound master at the Phi; inbound master at the host (§4.4.1).
      rings.outbound =
          make_ring("net.out" + std::to_string(i), kOutboundRingCapacity,
                    phi, true, host_device_, host_cpu_.get());
      rings.inbound =
          make_ring("net.in" + std::to_string(i), kInboundRingCapacity,
                    host_device_, false, host_device_, host_cpu_.get());
      tcp_proxy_->AttachDataPlane(static_cast<uint32_t>(i),
                                  rings.net_request.get(),
                                  rings.net_response.get(),
                                  rings.inbound.get(), rings.outbound.get());
      net_stubs_.push_back(std::make_unique<NetStub>(
          &sim_, params, phi_cpu, rings.net_request.get(),
          rings.net_response.get(), rings.inbound.get(),
          rings.outbound.get(), config_.net_options));
    }
  }

  if (telemetry_ != nullptr) {
    // Request-path containment edges for the bottleneck analyzer: a child's
    // queue depth is a subset of its parent's (an FS request counted in
    // fs.proxy[k] is also counted while parked in that shard's iosched
    // class queue, at the NVMe device, or in a host DMA copy), so the
    // analyzer subtracts child depth to get the shard's own exclusive
    // backlog. Each shard gets its own edge set to its own children.
    const std::string nvme_name = fabric_->NameOf(nvme_device_);
    for (int k = 0; k < proxy_shards_; ++k) {
      const std::string label = ShardLabel("fs.proxy", k, proxy_shards_);
      const std::string suffix =
          proxy_shards_ > 1 ? "[" + std::to_string(k) + "]" : "";
      for (const char* cls : {"iosched.ordered", "iosched.demand",
                              "iosched.writeback", "iosched.readahead"}) {
        telemetry_->DeclareEdge(label, cls + suffix);
      }
      telemetry_->DeclareEdge(label, nvme_name);
      telemetry_->DeclareEdge(
          label, "dma." + fabric_->NameOf(fs_shards_->core(k)->device()));
    }
    if (config_.enable_network) {
      for (int k = 0; k < proxy_shards_; ++k) {
        const std::string label = ShardLabel("net.proxy", k, proxy_shards_);
        telemetry_->DeclareEdge(label, "net.wire.up");
        telemetry_->DeclareEdge(label, "net.wire.down");
        // Per-connection series (conntrack) hang off their event-loop shard.
        telemetry_->DeclareEdge(label,
                                ShardLabel("net.conn", k, proxy_shards_));
      }
    }
  }
}

Machine::~Machine() {
  // Close rings so pump tasks can observe shutdown if the simulator is run
  // again; detached frames still parked at process exit are reclaimed by
  // the OS.
  for (DataPlaneRings& rings : rings_) {
    for (auto& ring : rings.fs_request) {
      ring->Close();
    }
    for (auto& ring : rings.fs_response) {
      ring->Close();
    }
    for (SimRing* ring : {rings.net_request.get(), rings.net_response.get(),
                          rings.inbound.get(), rings.outbound.get()}) {
      if (ring != nullptr) {
        ring->Close();
      }
    }
  }
}

std::string Machine::ConntrackJson(size_t top_k) const {
  if (tcp_proxy_ == nullptr) {
    return "";
  }
  std::ostringstream os;
  tcp_proxy_->conntrack().WriteTopJson(os, top_k);
  return os.str();
}

Task<Status> Machine::FormatFs(uint64_t inode_count) {
  co_return co_await fs_->Format(inode_count);
}

void Machine::DumpStats(std::ostream& os) {
  os << "=== machine stats @ " << ToMillis(sim_.now()) << " ms sim time\n";
  FsProxyStats fs;  // aggregated over shards
  for (auto& proxy : fs_proxies_) {
    const FsProxyStats& s = proxy->stats();
    fs.requests += s.requests;
    fs.p2p_reads += s.p2p_reads;
    fs.p2p_writes += s.p2p_writes;
    fs.buffered_reads += s.buffered_reads;
    fs.buffered_writes += s.buffered_writes;
    fs.degraded_reads += s.degraded_reads;
    fs.degraded_writes += s.degraded_writes;
  }
  os << "fs-proxy: " << fs.requests << " rpcs; reads p2p/buffered "
     << fs.p2p_reads << "/" << fs.buffered_reads << "; writes p2p/buffered "
     << fs.p2p_writes << "/" << fs.buffered_writes;
  if (proxy_shards_ > 1) {
    os << "; shards";
    for (auto& proxy : fs_proxies_) {
      os << " " << proxy->stats().requests;
    }
  }
  os << "\n";
  if (fs.degraded_reads + fs.degraded_writes > 0) {
    os << "fs-proxy degradations: reads " << fs.degraded_reads
       << ", writes " << fs.degraded_writes << "\n";
  }
  for (auto& proxy : fs_proxies_) {
    if (proxy->cache() == nullptr) {
      continue;
    }
    BufferCache* cache = proxy->cache();
    os << (proxy_shards_ > 1 ? "buffer-cache[" + std::to_string(
                                   proxy->shard_id()) + "]: "
                             : std::string("buffer-cache: "))
       << cache->hits() << " hits, " << cache->misses() << " misses, "
       << cache->evictions() << " evictions, " << cache->size() << "/"
       << cache->capacity() << " pages (probation/protected "
       << cache->probation_pages() << "/" << cache->protected_pages() << ")";
    if (cache->readahead_hits() > 0 || cache->dirty_pages() > 0) {
      os << "; readahead hits " << cache->readahead_hits() << ", dirty "
         << cache->dirty_pages();
    }
    os << "\n";
  }
  for (auto& proxy : fs_proxies_) {
    IoScheduler* sched = proxy->io_scheduler();
    os << (proxy_shards_ > 1 ? "io-scheduler[" + std::to_string(
                                   proxy->shard_id()) + "]: "
                             : std::string("io-scheduler: "))
       << sched->batches() << " batches, " << sched->plugs() << " plugs, "
       << sched->merges() << " merges, " << sched->dedup_hits()
       << " dedup hits; dispatched d/w/r "
       << sched->dispatched(IoClass::kDemand) << "/"
       << sched->dispatched(IoClass::kWriteback) << "/"
       << sched->dispatched(IoClass::kReadahead) << "\n";
  }
  os << "nvme: " << nvme_->commands_completed() << " commands, "
     << nvme_->doorbells_rung() << " doorbells, "
     << nvme_->interrupts_raised() << " interrupts, "
     << nvme_->bytes_read() / MiB(1) << " MiB read, "
     << nvme_->bytes_written() / MiB(1) << " MiB written\n";
  if (tcp_proxy_ != nullptr) {
    const TcpProxyStats& net = tcp_proxy_->stats();
    os << "tcp-proxy: " << net.rpcs << " rpcs, "
       << net.connections_forwarded << " connections, in/out messages "
       << net.inbound_messages << "/" << net.outbound_messages
       << ", in/out bytes " << net.inbound_bytes << "/"
       << net.outbound_bytes << "\n";
  }
  for (int i = 0; i < config_.num_phis; ++i) {
    const DataPlaneRings& rings = rings_[i];
    uint64_t fs_reqs = 0;
    for (const auto& ring : rings.fs_request) {
      fs_reqs += ring->messages_sent();
    }
    os << "dataplane " << i << ": fs-rpc " << fs_reqs << " reqs";
    if (rings.inbound != nullptr) {
      os << "; net inbound/outbound msgs "
         << rings.inbound->messages_received() << "/"
         << rings.outbound->messages_received();
    }
    os << "\n";
  }
  os << "--- metric registry ---\n";
  MetricRegistry::Default().DumpText(os);
  if (Faults().any_armed()) {
    os << "--- fault points ---\n";
    Faults().DumpText(os);
  }
}

}  // namespace solros
