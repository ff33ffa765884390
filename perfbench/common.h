// Shared pieces of the end-to-end benchmark: the per-repetition result,
// measured-phase counter probes, exact percentiles, and the deterministic
// content patterns the correctness oracles check against.
#ifndef SOLROS_PERFBENCH_COMMON_H_
#define SOLROS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/machine.h"

namespace perfbench {

// One repetition of a workload: build, set up, measure.
struct Rep {
  // Sim-clock metrics and per-layer counts. Deterministic: every repetition
  // of one seed, traced or not, must produce the identical map.
  std::map<std::string, double> exact;
  // Host-clock seconds per phase (build, format, prepare, warm, connect,
  // setup, measure). The run reports their medians across repetitions.
  std::map<std::string, double> host;
  // ProbeSeconds() taken between set-up and the measured phase.
  double probe_mid_s = 0.0;
  // Stage p99s from the tracer; only the traced repetition fills these.
  std::map<std::string, double> stages;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct RepOptions {
  uint64_t seed = 1;
  bool traced = false;
};

using WorkloadFn = Rep (*)(const RepOptions&);

Rep RunFsColdRw(const RepOptions& options);
Rep RunFsHotRpc(const RepOptions& options);
Rep RunNetStorm(const RepOptions& options);
Rep RunNetEchoOpen(const RepOptions& options);

// Steady-clock seconds since an arbitrary epoch.
double HostSeconds();

// Host-speed probe: a fixed mix of 4 KiB copies out of a 64 MiB ring and a
// callback heap with small allocations. It runs no simulator code. Returns
// the host seconds it took.
double ProbeSeconds();

// Prints `line` as the run's "config:" line unless `*printed` is set, then
// sets it.
void PrintConfigOnce(bool* printed, const std::string& line);

// Nearest-rank percentile of nanosecond samples, in microseconds (0 when
// there are no samples).
double PercentileUs(std::vector<uint64_t> samples_ns, double q);

// Every count the per-layer metrics are derived from, read through the
// public accessors of one Machine (plus the process registry's counters).
// Two probes bracket the measured phase; metrics are their deltas, so set-up
// and warm traffic never leak in.
struct Probe {
  std::map<std::string, uint64_t> registry;
  uint64_t nvme_cmds = 0;
  uint64_t nvme_doorbells = 0;
  uint64_t nvme_interrupts = 0;
  uint64_t nvme_read_bytes = 0;
  uint64_t nvme_write_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_readahead_hits = 0;
  uint64_t iosched_batches = 0;
  uint64_t iosched_merges = 0;
  uint64_t iosched_dedup_hits = 0;
  uint64_t iosched_peak_queued = 0;  // max over shards (a high-water mark)
  uint64_t journal_commits = 0;
  uint64_t journal_txns = 0;
  uint64_t journal_blocks = 0;
  std::vector<solros::FsProxyStats> proxy;  // per shard
  uint64_t stub_calls = 0;
  uint64_t fabric_transfers = 0;
  uint64_t fabric_bytes = 0;
  uint64_t net_stub_events = 0;
  uint64_t net_stub_messages = 0;
  solros::TcpProxyStats tcp;
};

// `network` says whether the machine was built with its network plane.
Probe TakeProbe(solros::Machine& machine, bool network);

// Sim-clock samples a workload collected in its measured phase.
struct Samples {
  std::vector<uint64_t> all;     // every successful operation
  std::vector<uint64_t> victim;  // the light request class
  std::vector<uint64_t> read;    // per FsStub call kind
  std::vector<uint64_t> write;
  std::vector<uint64_t> stat;
  std::vector<uint64_t> fsync;
  std::vector<uint64_t> connect;  // ClientConnect (set-up)
  std::vector<uint64_t> late;     // open-loop send lateness
  uint64_t ok = 0;  // operations that completed with the right bytes
  uint64_t payload_bytes = 0;
};

// Fills `rep` with the end-to-end sim metrics and every per-layer count.
// `elapsed` is the measured phase's simulated duration, `events` the
// simulator events it processed.
void RecordMetrics(const Probe& before, const Probe& after,
                   const Samples& samples, solros::Nanos elapsed,
                   uint64_t events, Rep* rep);

// Stage p99s over the tracer's closed traces (measured phase only: the
// tracer is bound at the phase boundary).
void RecordStages(const solros::Tracer& tracer, Rep* rep);

// -- content oracles ----------------------------------------------------------
// A 4 KiB file block written at `version` carries a header word naming
// (block, version) and a body derived from it, so a reader can tell which
// write it sees and whether the bytes are intact.
inline constexpr uint64_t kBlock = 4096;
void FillBlocks(std::span<uint8_t> out, uint64_t first_block,
                uint32_t version);
// Version held by every block of `data` (which starts at `first_block`), or
// -1 when any block is torn, misplaced, or not pattern content, or when the
// blocks disagree.
int64_t BlocksVersion(std::span<const uint8_t> data, uint64_t first_block);

// Echo payloads: bytes derived from a per-message key.
void FillPayload(std::span<uint8_t> out, uint64_t key);

// Writes `file_bytes` of version-0 pattern content to `path` host-side.
solros::Task<solros::Result<uint64_t>> PrepareFile(solros::SolrosFs* fs,
                                                   const std::string& path,
                                                   uint64_t file_bytes);

}  // namespace perfbench

#endif  // SOLROS_PERFBENCH_COMMON_H_
