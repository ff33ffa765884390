// End-to-end benchmark: the command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one seeded workload (build a Machine, set it up, run the measured
// phase) until --seconds of host time are used, at least kMinReps times.
// Sim-clock metrics and per-layer counts must be identical in every
// repetition; host-clock metrics are medians across repetitions, in
// reference seconds (see kProbeReferenceS). With
// --trace 1 one more, traced, repetition runs after the untraced ones: it
// must reproduce every sim-clock value exactly and supplies the stage p99s
// and the tracing overhead. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/common.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 64;

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"fs_cold_rw", RunFsColdRw},
    {"fs_hot_rpc", RunFsHotRpc},
    {"net_storm", RunNetStorm},
    {"net_echo_open", RunNetEchoOpen},
};

struct Metric {
  const char* name;
  const char* unit;
};

// Printed with --trace 0.
constexpr Metric kEndToEnd[] = {
    {"sim_kops", "kop/s"},   {"sim_gbps", "GB/s"},
    {"lat_p50_us", "us"},    {"lat_p99_us", "us"},
    {"victim_p99_us", "us"}, {"wall_s", "s"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

// Printed with --trace 1 (every workload prints every name; a layer the
// workload does not exercise reads 0).
constexpr Metric kPerLayer[] = {
    {"fail_ratio", "ratio"},
    {"lat.samples", "count"},
    {"victim.samples", "count"},
    {"slo_kops", "kop/s"},
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"host.raw_wall_s", "s"},
    {"host.raw_setup_s", "s"},
    {"host.probe_ms", "ms"},
    {"core.build_s", "s"},
    {"fs.format_s", "s"},
    {"fs.prepare_s", "s"},
    {"fs.warm_s", "s"},
    {"net.connect_s", "s"},
    {"nvme.cmds", "count"},
    {"nvme.doorbells", "count"},
    {"nvme.interrupts", "count"},
    {"nvme.read_mb", "MB"},
    {"nvme.write_mb", "MB"},
    {"nvme.cmds_per_op", "count"},
    {"nvme.store.retries", "count"},
    {"fs.cache.hits", "count"},
    {"fs.cache.misses", "count"},
    {"fs.cache.hit_ratio", "ratio"},
    {"fs.cache.evictions", "count"},
    {"fs.cache.readahead_hits", "count"},
    {"fs.cache.writeback_runs", "count"},
    {"fs.iosched.batches", "count"},
    {"fs.iosched.merges", "count"},
    {"fs.iosched.dedup_hits", "count"},
    {"fs.iosched.peak_queued", "count"},
    {"fs.journal.commits", "count"},
    {"fs.journal.txns", "count"},
    {"fs.journal.blocks_logged", "count"},
    {"fs.proxy.requests", "count"},
    {"fs.proxy.p2p_reads", "count"},
    {"fs.proxy.buffered_reads", "count"},
    {"fs.proxy.buffered_writes", "count"},
    {"fs.proxy.p2p_degraded", "count"},
    {"fs.proxy.shard_max_over_mean", "ratio"},
    {"fs.stub.calls", "count"},
    {"fs.stub.retries", "count"},
    {"fs.stub.read_p99_us", "us"},
    {"fs.stub.write_p99_us", "us"},
    {"fs.stub.stat_p99_us", "us"},
    {"fs.stub.fsync_p99_us", "us"},
    {"rpc.call_timeouts", "count"},
    {"rpc.dropped_responses", "count"},
    {"transport.ring.messages_sent", "count"},
    {"transport.ring.bytes_sent", "bytes"},
    {"transport.ring.control_txns", "count"},
    {"transport.ring.send_stalls", "count"},
    {"transport.ring.control_txns_per_msg", "count"},
    {"hw.dma.copies", "count"},
    {"hw.fabric.transfers", "count"},
    {"hw.fabric.mb", "MB"},
    {"net.copy.dma", "count"},
    {"net.copy.memcpy", "count"},
    {"net.plug.doorbells", "count"},
    {"net.plug.events_per_push", "count"},
    {"net.stub.msgs_per_event", "count"},
    {"net.proxy.inbound_messages", "count"},
    {"net.proxy.outbound_messages", "count"},
    {"net.proxy.shard_handoffs", "count"},
    {"net.proxy.events_dropped", "count"},
    {"net.stub.events", "count"},
    {"net.stub.retries", "count"},
    {"net.wire.payload_copies", "count"},
    {"net.wire.pool_hits", "count"},
    {"net.client.connect_p99_us", "us"},
    {"gen.late_p99_us", "us"},
    {"gen.backlog_peak", "count"},
    {"fs.stage.stub_p99_us", "us"},
    {"fs.stage.queue_p99_us", "us"},
    {"fs.stage.iosched_p99_us", "us"},
    {"fs.stage.proxy_p99_us", "us"},
    {"fs.stage.copy_dma_p99_us", "us"},
    {"fs.stage.device_p99_us", "us"},
    {"net.stage.stub_p99_us", "us"},
    {"net.stage.queue_p99_us", "us"},
    {"net.stage.dispatch_p99_us", "us"},
    {"net.stage.proxy_p99_us", "us"},
    {"net.stage.wire_p99_us", "us"},
    {"net.stage.copy_dma_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fs_cold_rw|fs_hot_rpc|"
               "net_storm|net_echo_open> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double HostMedian(const std::vector<Rep>& reps, const std::string& key) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    auto it = rep.host.find(key);
    if (it != rep.host.end()) {
      values.push_back(it->second);
    }
  }
  return Median(values);
}

double Lookup(const std::map<std::string, double>& map,
              const std::string& key) {
  auto it = map.find(key);
  return it != map.end() ? it->second : 0.0;
}

// Names of `a`'s values that differ in `b` (or are missing from either).
std::vector<std::string> Differences(const std::map<std::string, double>& a,
                                     const std::map<std::string, double>& b) {
  std::vector<std::string> out;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    if (it == b.end() || std::memcmp(&it->second, &value, sizeof(value)) != 0) {
      out.push_back(key);
    }
  }
  for (const auto& [key, value] : b) {
    if (!a.contains(key)) {
      out.push_back(key);
    }
  }
  return out;
}

bool SameRun(const char* what, const Rep& expected, const Rep& got) {
  std::vector<std::string> diff = Differences(expected.exact, got.exact);
  if (expected.attempted != got.attempted || expected.failed != got.failed) {
    diff.push_back("attempted/failed");
  }
  if (diff.empty()) {
    return true;
  }
  std::cerr << "determinism check failed (" << what << "):";
  for (const std::string& key : diff) {
    std::cerr << " " << key << "=" << Lookup(expected.exact, key) << "/"
              << Lookup(got.exact, key);
  }
  std::cerr << "\n";
  return false;
}

// The box is shared and its speed drifts by a quarter or more over minutes.
// Host-clock metrics are therefore reported in reference seconds: raw seconds
// times kProbeReferenceS over the host-speed probe measured around them. Each
// repetition takes three probes: before set-up, between set-up and the
// measured phase, and after it. Set-up times are scaled by the mean of the
// first two, the measured phase by the mean of the last two. The probe runs no
// simulator code, so a change to the simulator moves the scaled value as much
// as the raw one. kProbeReferenceS is about the probe's time on a quiet 4-core
// Xeon (Sapphire Rapids, KVM guest), where reference and raw seconds agree.
constexpr double kProbeReferenceS = 0.050;

void ToReferenceSeconds(double probe_before_s, double probe_after_s,
                        Rep* rep) {
  const double setup_probe = (probe_before_s + rep->probe_mid_s) / 2;
  const double measure_probe = (rep->probe_mid_s + probe_after_s) / 2;
  const double raw_wall = Lookup(rep->host, "wall_s");
  const double raw_setup = Lookup(rep->host, "setup_s");
  for (auto& [name, value] : rep->host) {
    value *= kProbeReferenceS /
             (name == "wall_s" ? measure_probe : setup_probe);
  }
  rep->host["host.raw_wall_s"] = raw_wall;
  rep->host["host.raw_setup_s"] = raw_setup;
  rep->host["host.probe_ms"] =
      (probe_before_s + rep->probe_mid_s + probe_after_s) / 3 * 1e3;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  long long seed = -1;
  long long seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || workload.empty() || seed < 0 || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return Usage("missing or malformed flag");
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      chosen = &w;
    }
  }
  if (chosen == nullptr) {
    return Usage("unknown workload");
  }
  // Every knob is pinned in this binary; SOLROS_* variables (shard count,
  // journal, net path, faults, trace sampling, bench modes) would override
  // some of them, so their presence refuses the run.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SOLROS_", 7) == 0) {
      std::cerr << "perfbench: refusing to run with " << *env
                << " set; unset every SOLROS_* variable\n";
      return 2;
    }
  }

  const double start = HostSeconds();
  const double deadline = start + static_cast<double>(seconds);
  const RepOptions untraced{static_cast<uint64_t>(seed), false};
  std::vector<Rep> reps;
  double probe_s = ProbeSeconds();
  while (reps.size() < kMaxReps) {
    const double r0 = HostSeconds();
    Rep rep = chosen->fn(untraced);
    const double probe_after = ProbeSeconds();
    ToReferenceSeconds(probe_s, probe_after, &rep);
    probe_s = probe_after;
    const double rep_s = HostSeconds() - r0;
    std::cout << "rep " << reps.size() + 1 << ": setup_s="
              << Lookup(rep.host, "setup_s")
              << " wall_s=" << Lookup(rep.host, "wall_s")
              << " raw_wall_s=" << Lookup(rep.host, "host.raw_wall_s")
              << " probe_ms=" << Lookup(rep.host, "host.probe_ms")
              << " sim_kops=" << Lookup(rep.exact, "sim_kops")
              << " lat_p99_us=" << Lookup(rep.exact, "lat_p99_us")
              << " failed=" << rep.failed << "/" << rep.attempted << "\n";
    reps.push_back(std::move(rep));
    if (reps.size() >= kMinReps && HostSeconds() + rep_s > deadline) {
      break;
    }
  }
  bool correct = reps.front().failed == 0;
  for (size_t i = 1; i < reps.size(); ++i) {
    correct = SameRun("repetition", reps.front(), reps[i]) && correct;
  }
  const Rep& first = reps.front();
  const double wall_s = HostMedian(reps, "wall_s");

  std::vector<std::pair<const Metric*, double>> values;
  if (trace == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    for (const Metric& m : kEndToEnd) {
      const std::string name = m.name;
      double value = Lookup(first.exact, name);
      if (name == "wall_s" || name == "setup_s") {
        value = HostMedian(reps, name);
      } else if (name == "peak_rss_mb") {
        value = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
      }
      values.emplace_back(&m, value);
    }
  } else {
    const RepOptions traced{static_cast<uint64_t>(seed), true};
    Rep traced_rep = chosen->fn(traced);
    ToReferenceSeconds(probe_s, ProbeSeconds(), &traced_rep);
    correct = SameRun("traced vs untraced", first, traced_rep) && correct;
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double value = Lookup(first.exact, name);
      if (first.host.contains(name)) {
        value = HostMedian(reps, name);
      } else if (traced_rep.stages.contains(name)) {
        value = Lookup(traced_rep.stages, name);
      } else if (name == "sim.host_ns_per_event") {
        const double events = Lookup(first.exact, "sim.events");
        value = events > 0 ? wall_s * 1e9 / events : 0.0;
      } else if (name == "trace.overhead_pct") {
        value = wall_s > 0
                    ? (Lookup(traced_rep.host, "wall_s") / wall_s - 1) * 100
                    : 0.0;
      }
      values.emplace_back(&m, value);
    }
    std::cout << "traced: fs_traces=" << Lookup(traced_rep.stages, "trace.fs_traces")
              << " net_traces=" << Lookup(traced_rep.stages, "trace.net_traces")
              << " inexact=" << Lookup(traced_rep.stages, "trace.inexact")
              << "\n";
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(first.attempted);
  json += ", \"failed\": " + std::to_string(first.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + std::string(values[i].first->name) +
            "\": {\"value\": " + Number(values[i].second) +
            ", \"unit\": \"" + values[i].first->unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
