#include "perfbench/common.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <queue>

#include "src/base/prng.h"
#include "src/sim/attribution.h"

namespace perfbench {

using namespace solros;

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// A single random cycle through 64 MiB of slots, built once per process. It
// outgrows the last-level cache, so walking and copying out of it feels the
// memory contention that slows the simulator. (A pure pointer chase slowed
// about a third as much as the simulator did, so the probe does not time one.)
const std::vector<uint32_t>& ProbeRing() {
  constexpr uint32_t kSlots = 1u << 24;
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      order[i] = i;
    }
    Prng prng(0x5eed);
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[prng.NextBelow(i + 1)]);
    }
    std::vector<uint32_t> next(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      next[order[i]] = order[(i + 1) % kSlots];
    }
    return next;
  }();
  return ring;
}

// Keeps the probe's work observable so the compiler cannot drop it.
volatile uint64_t probe_sink = 0;

}  // namespace

double ProbeSeconds() {
  const std::vector<uint32_t>& ring = ProbeRing();
  const double start = HostSeconds();
  uint64_t sum = 0;
  uint32_t at = 0;
  // 4 KiB copies out of random blocks, like cache and payload copies.
  std::array<uint32_t, 1024> block;
  for (int i = 0; i < 30000; ++i) {
    at = ring[at];
    std::memcpy(block.data(), ring.data() + (at & ~1023u), sizeof(block));
    sum += block[at & 1023];
  }
  // A timer-queue loop: a heap of callbacks, each of which refills a small
  // buffer and schedules the next, like the simulator's event dispatch.
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(later);
  std::vector<std::vector<uint8_t>> buffers(4096);
  uint64_t seq = 0;
  for (int i = 0; i < 2048; ++i) {
    events.push({static_cast<uint64_t>(i), seq++, [&sum] { ++sum; }});
  }
  for (int i = 0; i < 120000; ++i) {
    Event event = events.top();
    events.pop();
    event.fn();
    at = ring[at];
    std::vector<uint8_t>& buffer = buffers[at % buffers.size()];
    buffer.assign(64 + at % 512, static_cast<uint8_t>(at));
    events.push({event.time + 1 + at % 1024, seq++,
                 [&sum, &buffer] { sum += buffer.size(); }});
  }
  probe_sink = sum;
  return HostSeconds() - start;
}

void PrintConfigOnce(bool* printed, const std::string& line) {
  if (!*printed) {
    std::cout << "config: " << line << "\n";
    *printed = true;
  }
}

double PercentileUs(std::vector<uint64_t> samples_ns, double q) {
  if (samples_ns.empty()) {
    return 0.0;
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples_ns.size())));
  const size_t index = std::clamp<size_t>(rank, 1, samples_ns.size()) - 1;
  std::nth_element(samples_ns.begin(), samples_ns.begin() + index,
                   samples_ns.end());
  return static_cast<double>(samples_ns[index]) / 1e3;
}

Probe TakeProbe(Machine& machine, bool network) {
  Probe p;
  for (const auto& counter : MetricRegistry::Default().Snapshot().counters) {
    p.registry[counter.name] = counter.value;
  }
  const NvmeDevice& nvme = machine.nvme();
  p.nvme_cmds = nvme.commands_completed();
  p.nvme_doorbells = nvme.doorbells_rung();
  p.nvme_interrupts = nvme.interrupts_raised();
  p.nvme_read_bytes = nvme.bytes_read();
  p.nvme_write_bytes = nvme.bytes_written();
  for (int k = 0; k < machine.proxy_shards(); ++k) {
    FsProxy& proxy = machine.fs_proxy_shard(k);
    if (const BufferCache* cache = proxy.cache(); cache != nullptr) {
      p.cache_hits += cache->hits();
      p.cache_misses += cache->misses();
      p.cache_evictions += cache->evictions();
      p.cache_readahead_hits += cache->readahead_hits();
    }
    if (const IoScheduler* sched = proxy.io_scheduler(); sched != nullptr) {
      p.iosched_batches += sched->batches();
      p.iosched_merges += sched->merges();
      p.iosched_dedup_hits += sched->dedup_hits();
      p.iosched_peak_queued =
          std::max(p.iosched_peak_queued, sched->peak_queued());
    }
    p.proxy.push_back(proxy.stats());
  }
  if (const Journal* journal = machine.fs().journal(); journal != nullptr) {
    p.journal_commits = journal->commits();
    p.journal_txns = journal->txns();
    p.journal_blocks = journal->blocks_logged();
  }
  for (int i = 0; i < machine.num_phis(); ++i) {
    p.stub_calls += machine.fs_stub(i).calls_issued();
  }
  p.fabric_transfers = machine.fabric().transfer_count();
  p.fabric_bytes = machine.fabric().total_bytes_transferred();
  if (network) {
    for (int i = 0; i < machine.num_phis(); ++i) {
      p.net_stub_events += machine.net_stub(i).events_dispatched();
      p.net_stub_messages += machine.net_stub(i).messages_delivered();
    }
    p.tcp = machine.tcp_proxy().stats();
  }
  return p;
}

namespace {

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

uint64_t RegistryValue(const Probe& p, const std::string& name) {
  auto it = p.registry.find(name);
  return it != p.registry.end() ? it->second : 0;
}

}  // namespace

void RecordMetrics(const Probe& before, const Probe& after,
                   const Samples& samples, Nanos elapsed, uint64_t events,
                   Rep* rep) {
  auto& x = rep->exact;
  auto reg = [&](const std::string& name) {
    return static_cast<double>(RegistryValue(after, name) -
                               RegistryValue(before, name));
  };
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double ops = static_cast<double>(samples.ok);
  const double seconds = ToSeconds(elapsed);

  // End to end (sim clock).
  x["sim_kops"] = Ratio(ops, seconds) / 1e3;
  x["sim_gbps"] = Ratio(static_cast<double>(samples.payload_bytes), seconds) /
                  1e9;
  x["lat_p50_us"] = PercentileUs(samples.all, 0.50);
  x["lat_p99_us"] = PercentileUs(samples.all, 0.99);
  x["victim_p99_us"] = PercentileUs(samples.victim, 0.99);
  x["lat.samples"] = static_cast<double>(samples.all.size());
  x["victim.samples"] = static_cast<double>(samples.victim.size());
  x["fail_ratio"] =
      Ratio(static_cast<double>(rep->failed), static_cast<double>(rep->attempted));

  // sim
  x["sim.events"] = static_cast<double>(events);
  x["sim.events_per_op"] = Ratio(static_cast<double>(events), ops);

  // nvme
  const double cmds = delta(after.nvme_cmds, before.nvme_cmds);
  x["nvme.cmds"] = cmds;
  x["nvme.doorbells"] = delta(after.nvme_doorbells, before.nvme_doorbells);
  x["nvme.interrupts"] = delta(after.nvme_interrupts, before.nvme_interrupts);
  x["nvme.read_mb"] =
      delta(after.nvme_read_bytes, before.nvme_read_bytes) / 1e6;
  x["nvme.write_mb"] =
      delta(after.nvme_write_bytes, before.nvme_write_bytes) / 1e6;
  x["nvme.cmds_per_op"] = Ratio(cmds, ops);
  x["nvme.store.retries"] = reg("nvme.store.retries");

  // fs cache
  const double hits = delta(after.cache_hits, before.cache_hits);
  const double misses = delta(after.cache_misses, before.cache_misses);
  x["fs.cache.hits"] = hits;
  x["fs.cache.misses"] = misses;
  x["fs.cache.hit_ratio"] = Ratio(hits, hits + misses);
  x["fs.cache.evictions"] = delta(after.cache_evictions, before.cache_evictions);
  x["fs.cache.readahead_hits"] =
      delta(after.cache_readahead_hits, before.cache_readahead_hits);
  x["fs.cache.writeback_runs"] = reg("cache.writeback_runs");

  // fs iosched. The scheduler's peak is a lifetime high-water mark, so it is
  // reported only when the measured phase raised it (0 otherwise).
  x["fs.iosched.batches"] = delta(after.iosched_batches, before.iosched_batches);
  x["fs.iosched.merges"] = delta(after.iosched_merges, before.iosched_merges);
  x["fs.iosched.dedup_hits"] =
      delta(after.iosched_dedup_hits, before.iosched_dedup_hits);
  x["fs.iosched.peak_queued"] =
      after.iosched_peak_queued > before.iosched_peak_queued
          ? static_cast<double>(after.iosched_peak_queued)
          : 0.0;

  // fs journal
  x["fs.journal.commits"] = delta(after.journal_commits, before.journal_commits);
  x["fs.journal.txns"] = delta(after.journal_txns, before.journal_txns);
  x["fs.journal.blocks_logged"] =
      delta(after.journal_blocks, before.journal_blocks);

  // fs proxy
  FsProxyStats sum;
  std::vector<double> shard_requests;
  for (size_t k = 0; k < after.proxy.size(); ++k) {
    const FsProxyStats& a = after.proxy[k];
    const FsProxyStats& b = before.proxy[k];
    sum.requests += a.requests - b.requests;
    sum.p2p_reads += a.p2p_reads - b.p2p_reads;
    sum.buffered_reads += a.buffered_reads - b.buffered_reads;
    sum.buffered_writes += a.buffered_writes - b.buffered_writes;
    sum.degraded_reads += a.degraded_reads - b.degraded_reads;
    sum.degraded_writes += a.degraded_writes - b.degraded_writes;
    shard_requests.push_back(static_cast<double>(a.requests - b.requests));
  }
  x["fs.proxy.requests"] = static_cast<double>(sum.requests);
  x["fs.proxy.p2p_reads"] = static_cast<double>(sum.p2p_reads);
  x["fs.proxy.buffered_reads"] = static_cast<double>(sum.buffered_reads);
  x["fs.proxy.buffered_writes"] = static_cast<double>(sum.buffered_writes);
  x["fs.proxy.p2p_degraded"] =
      static_cast<double>(sum.degraded_reads + sum.degraded_writes);
  const double shard_max =
      shard_requests.empty()
          ? 0.0
          : *std::max_element(shard_requests.begin(), shard_requests.end());
  x["fs.proxy.shard_max_over_mean"] =
      Ratio(shard_max, static_cast<double>(sum.requests) /
                           static_cast<double>(shard_requests.size()));

  // fs stub + rpc
  x["fs.stub.calls"] = delta(after.stub_calls, before.stub_calls);
  x["fs.stub.retries"] = reg("fs.stub.retries");
  x["fs.stub.read_p99_us"] = PercentileUs(samples.read, 0.99);
  x["fs.stub.write_p99_us"] = PercentileUs(samples.write, 0.99);
  x["fs.stub.stat_p99_us"] = PercentileUs(samples.stat, 0.99);
  x["fs.stub.fsync_p99_us"] = PercentileUs(samples.fsync, 0.99);
  x["rpc.call_timeouts"] = reg("rpc.call_timeouts");
  x["rpc.dropped_responses"] = reg("rpc.dropped_responses");

  // transport
  const double ring_messages = reg("transport.ring.messages_sent");
  x["transport.ring.messages_sent"] = ring_messages;
  x["transport.ring.bytes_sent"] = reg("transport.ring.bytes_sent");
  x["transport.ring.control_txns"] = reg("transport.ring.control_txns");
  x["transport.ring.send_stalls"] = reg("transport.ring.send_stalls");
  x["transport.ring.control_txns_per_msg"] =
      Ratio(reg("transport.ring.control_txns"), ring_messages);

  // hw
  x["hw.dma.copies"] = reg("hw.dma.copies");
  x["hw.fabric.transfers"] = delta(after.fabric_transfers, before.fabric_transfers);
  x["hw.fabric.mb"] = delta(after.fabric_bytes, before.fabric_bytes) / 1e6;
  x["net.copy.dma"] = reg("net.copy.dma");
  x["net.copy.memcpy"] = reg("net.copy.memcpy");

  // net plug
  const double doorbells = reg("net.proxy.doorbells") + reg("net.stub.doorbells");
  const double pushed =
      reg("net.proxy.events_pushed") + reg("net.stub.events_pushed");
  const double stub_events = delta(after.net_stub_events, before.net_stub_events);
  x["net.plug.doorbells"] = doorbells;
  x["net.plug.events_per_push"] = Ratio(pushed, doorbells);
  x["net.stub.msgs_per_event"] =
      Ratio(delta(after.net_stub_messages, before.net_stub_messages),
            stub_events);

  // net proxy / stub
  x["net.proxy.inbound_messages"] =
      delta(after.tcp.inbound_messages, before.tcp.inbound_messages);
  x["net.proxy.outbound_messages"] =
      delta(after.tcp.outbound_messages, before.tcp.outbound_messages);
  x["net.proxy.shard_handoffs"] =
      delta(after.tcp.shard_handoffs, before.tcp.shard_handoffs);
  x["net.proxy.events_dropped"] = reg("net.proxy.events_dropped");
  x["net.stub.events"] = stub_events;
  x["net.stub.retries"] = reg("net.stub.retries");

  // net wire
  x["net.wire.payload_copies"] = reg("net.wire.payload_copies");
  x["net.wire.pool_hits"] = reg("net.wire.pool_hits");
  x["net.client.connect_p99_us"] = PercentileUs(samples.connect, 0.99);

  // load generator
  x["gen.late_p99_us"] = PercentileUs(samples.late, 0.99);
}

void RecordStages(const Tracer& tracer, Rep* rep) {
  enum Stage { kStub, kQueue, kIosched, kProxy, kCopy, kDevice, kWire,
               kDispatch, kStages };
  std::array<std::vector<uint64_t>, kStages> fs;
  std::array<std::vector<uint64_t>, kStages> net;
  uint64_t inexact = 0;
  for (const StageBreakdown& b : ComputeStageBreakdowns(tracer)) {
    if (b.net && b.wire == 0) {
      continue;  // a control RPC (listen/accept/close), not an echo
    }
    auto& s = b.net ? net : fs;
    s[kStub].push_back(b.stub);
    s[kQueue].push_back(b.queue_wait);
    s[kIosched].push_back(b.iosched_wait);
    s[kProxy].push_back(b.proxy);
    s[kCopy].push_back(b.copy_dma);
    s[kDevice].push_back(b.device);
    s[kWire].push_back(b.wire);
    s[kDispatch].push_back(b.dispatch);
    inexact += b.exact ? 0 : 1;
  }
  auto& out = rep->stages;
  out["fs.stage.stub_p99_us"] = PercentileUs(fs[kStub], 0.99);
  out["fs.stage.queue_p99_us"] = PercentileUs(fs[kQueue], 0.99);
  out["fs.stage.iosched_p99_us"] = PercentileUs(fs[kIosched], 0.99);
  out["fs.stage.proxy_p99_us"] = PercentileUs(fs[kProxy], 0.99);
  out["fs.stage.copy_dma_p99_us"] = PercentileUs(fs[kCopy], 0.99);
  out["fs.stage.device_p99_us"] = PercentileUs(fs[kDevice], 0.99);
  out["net.stage.stub_p99_us"] = PercentileUs(net[kStub], 0.99);
  out["net.stage.queue_p99_us"] = PercentileUs(net[kQueue], 0.99);
  out["net.stage.dispatch_p99_us"] = PercentileUs(net[kDispatch], 0.99);
  out["net.stage.proxy_p99_us"] = PercentileUs(net[kProxy], 0.99);
  out["net.stage.wire_p99_us"] = PercentileUs(net[kWire], 0.99);
  out["net.stage.copy_dma_p99_us"] = PercentileUs(net[kCopy], 0.99);
  out["trace.fs_traces"] = static_cast<double>(fs[kStub].size());
  out["trace.net_traces"] = static_cast<double>(net[kStub].size());
  out["trace.inexact"] = static_cast<double>(inexact);
}

// -- content oracles ----------------------------------------------------------

namespace {

constexpr uint64_t kWordsPerBlock = kBlock / sizeof(uint64_t);
constexpr uint64_t kTagMagic = 0x50e1f0b5a11d0000ull;

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void MakeBlock(uint64_t block, uint32_t version,
               std::array<uint64_t, kWordsPerBlock>* words) {
  const uint64_t tag = (block << 32) | version;
  const uint64_t base = Mix(tag);
  (*words)[0] = tag ^ kTagMagic;
  for (uint64_t i = 1; i < kWordsPerBlock; ++i) {
    (*words)[i] = base + i * 0x9e3779b97f4a7c15ull;
  }
}

}  // namespace

void FillBlocks(std::span<uint8_t> out, uint64_t first_block,
                uint32_t version) {
  CHECK_EQ(out.size() % kBlock, 0u);
  std::array<uint64_t, kWordsPerBlock> words;
  for (uint64_t b = 0; b < out.size() / kBlock; ++b) {
    MakeBlock(first_block + b, version, &words);
    std::memcpy(out.data() + b * kBlock, words.data(), kBlock);
  }
}

int64_t BlocksVersion(std::span<const uint8_t> data, uint64_t first_block) {
  if (data.empty() || data.size() % kBlock != 0) {
    return -1;
  }
  int64_t version = -1;
  std::array<uint64_t, kWordsPerBlock> words;
  for (uint64_t b = 0; b < data.size() / kBlock; ++b) {
    uint64_t header = 0;
    std::memcpy(&header, data.data() + b * kBlock, sizeof(header));
    const uint64_t tag = header ^ kTagMagic;
    const uint32_t seen = static_cast<uint32_t>(tag);
    if ((tag >> 32) != first_block + b || (version >= 0 && seen != version)) {
      return -1;
    }
    MakeBlock(first_block + b, seen, &words);
    if (std::memcmp(data.data() + b * kBlock, words.data(), kBlock) != 0) {
      return -1;
    }
    version = seen;
  }
  return version;
}

void FillPayload(std::span<uint8_t> out, uint64_t key) {
  const uint64_t base = Mix(key);
  for (size_t i = 0; i < out.size(); i += sizeof(uint64_t)) {
    const uint64_t word = Mix(base + i);
    std::memcpy(out.data() + i, &word,
                std::min(sizeof(word), out.size() - i));
  }
}

Task<Result<uint64_t>> PrepareFile(SolrosFs* fs, const std::string& path,
                                   uint64_t file_bytes) {
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, co_await fs->Create(path));
  std::vector<uint8_t> chunk(MiB(8));
  uint64_t written = 0;
  while (written < file_bytes) {
    const uint64_t n = std::min<uint64_t>(chunk.size(), file_bytes - written);
    std::span<uint8_t> part(chunk.data(), n);
    FillBlocks(part, written / kBlock, 0);
    SOLROS_CO_ASSIGN_OR_RETURN(uint64_t w,
                               co_await fs->WriteAt(ino, written, part));
    written += w;
  }
  co_return ino;
}

}  // namespace perfbench
