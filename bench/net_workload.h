// Shared network workload driver for Figs. 1(b), 13(b), 14, 15, 16:
// echo servers on each server configuration, ping-pong latency and
// streaming throughput measurement from external clients.
#ifndef SOLROS_BENCH_NET_WORKLOAD_H_
#define SOLROS_BENCH_NET_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/base/prng.h"
#include "src/core/machine.h"
#include "src/net/direct_server.h"
#include "src/sim/attribution.h"
#include "src/sim/sync.h"

namespace solros {

inline Task<void> EchoConnection(ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok()) {
      break;
    }
    if (!(co_await api->Send(sock, *message)).ok()) {
      break;
    }
  }
}

// Accepts `connections` clients, serving each on its own task.
inline Task<void> BenchEchoServer(ServerSocketApi* api, uint16_t port,
                                  int connections) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(port, 256);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, EchoConnection(api, *sock));
  }
}

inline Task<void> PingPongClient(EthernetFabric* eth, Processor* cpu,
                                 uint32_t addr, uint16_t port, int pings,
                                 uint32_t size, Simulator* sim,
                                 Histogram* latencies, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(addr, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(size, 0x11);
  Prng prng(addr * 7919 + port);  // deterministic per-client jitter
  Tracer* tracer = sim->tracer();
  for (int i = 0; i < pings; ++i) {
    // Open-loop-ish think time desynchronizes clients so queueing (and
    // therefore the percentile spread) is realistic.
    co_await Delay(prng.NextInRange(0, Microseconds(50)));
    SimTime t0 = sim->now();
    {
      // Root of this round trip's causal trace: every wire hop, ring wait,
      // proxy/stack span, and dispatch handoff hangs off it (untraced when
      // no tracer is bound).
      ScopedSpan op(tracer, "client", "net.client.op",
                    NewRootContext(tracer));
      CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu, op.context()));
      auto echoed = co_await eth->ClientRecv(*conn);
      CHECK_OK(echoed);
      CHECK_EQ(echoed->size(), payload.size());
    }
    latencies->Record(sim->now() - t0);
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

// One-way streaming: client pushes `messages` of `size`; a drainer task on
// the server side consumes; throughput = bytes / elapsed.
inline Task<void> StreamClient(EthernetFabric* eth, Processor* cpu,
                               uint32_t addr, uint16_t port, int messages,
                               uint32_t size, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(addr, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(size, 0x22);
  for (int i = 0; i < messages; ++i) {
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
  }
  // Wait for one ack so the tail is flushed through the server stack.
  auto ack = co_await eth->ClientRecv(*conn);
  CHECK_OK(ack);
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

inline Task<void> DrainServer(ServerSocketApi* api, uint16_t port,
                              int connections, int messages_per_conn) {
  auto listener = co_await api->Listen(port, 256);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    for (int i = 0; i < messages_per_conn; ++i) {
      auto message = co_await api->Recv(*sock);
      CHECK_OK(message);
    }
    uint8_t ack = 1;
    CHECK_OK(co_await api->Send(*sock, {&ack, 1}));
  }
}

// The three server configurations of Fig. 1(b).
enum class NetConfigKind { kHost, kSolros, kPhiLinux };

inline const char* NetConfigName(NetConfigKind kind) {
  switch (kind) {
    case NetConfigKind::kHost:
      return "Host";
    case NetConfigKind::kSolros:
      return "Phi-Solros";
    case NetConfigKind::kPhiLinux:
      return "Phi-Linux";
  }
  return "?";
}

// Builds a machine + the chosen server stack, runs `body(api, machine)`.
// `net_options` sets the plug window of the Solros stub/proxy rings
// (DESIGN.md §5.5); the direct stacks have no plug.
struct NetRig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<DirectServer> direct;  // host / phi-linux configs
  ServerSocketApi* api = nullptr;

  explicit NetRig(NetConfigKind kind, int num_phis = 1,
                  const NetPathOptions& net_options = {},
                  int proxy_shards = 0) {
    MachineConfig config;
    config.num_phis = num_phis;
    config.nvme_capacity = MiB(64);
    config.net_options = net_options;
    config.proxy_shards = proxy_shards;
    MaybeEnableTelemetry(config);
    machine = std::make_unique<Machine>(std::move(config));
    switch (kind) {
      case NetConfigKind::kSolros:
        api = &machine->net_stub(0);
        break;
      case NetConfigKind::kHost: {
        DirectServer::Config dc;
        dc.stack_cpu = &machine->host_cpu();
        dc.stack_device = machine->host_device();
        direct = std::make_unique<DirectServer>(
            &machine->sim(), &machine->fabric(), machine->params(),
            &machine->ethernet(), dc);
        api = direct.get();
        break;
      }
      case NetConfigKind::kPhiLinux: {
        DirectServer::Config dc;
        dc.stack_cpu = &machine->phi_cpu(0);
        dc.stack_device = machine->phi_device(0);
        dc.bridge_cpu = &machine->host_cpu();
        dc.bridge_device = machine->host_device();
        dc.single_rx_queue = true;
        direct = std::make_unique<DirectServer>(
            &machine->sim(), &machine->fabric(), machine->params(),
            &machine->ethernet(), dc);
        api = direct.get();
        break;
      }
    }
  }
};

// Measures ping-pong latency for one configuration.
inline Histogram MeasureNetLatency(NetConfigKind kind, uint32_t size,
                                   int clients, int pings) {
  NetRig rig(kind);
  Machine& machine = *rig.machine;
  Spawn(machine.sim(), BenchEchoServer(rig.api, 7000, clients));
  machine.sim().RunUntilIdle();
  Processor client_cpu(&machine.sim(), machine.host_device(), 64, 1.0,
                       "client");
  // Report the ping-pong loop, not server/listener setup.
  ResetTelemetry(machine);
  Histogram latencies;
  WaitGroup wg(&machine.sim());
  for (int c = 0; c < clients; ++c) {
    wg.Add(1);
    Spawn(machine.sim(),
          PingPongClient(&machine.ethernet(), &client_cpu,
                         0x0a000000u + static_cast<uint32_t>(c), 7000,
                         pings, size, &machine.sim(), &latencies, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  AppendTelemetryReport(std::string("net-latency/") + NetConfigName(kind) +
                            "/" + std::to_string(size) + "B",
                        machine);
  return latencies;
}

// Runs the ping-pong workload under a bound Tracer and returns one
// measured StageBreakdown per closed trace (echo round trips root at
// net.client.op; control RPCs like Listen/Accept root at net.stub.call —
// filter on `wire > 0` for the data-path rows). Optionally exports the
// Chrome trace to `trace_out`.
inline std::vector<StageBreakdown> MeasureNetStages(
    NetConfigKind kind, uint32_t size, int clients, int pings,
    const std::string& trace_out = "") {
  // Declared before the rig: coroutine frames owned by the simulator hold
  // ScopedSpans into the tracer, so it must be destroyed last.
  Tracer tracer;
  NetRig rig(kind);
  Machine& machine = *rig.machine;
  tracer.Bind(&machine.sim());
  Spawn(machine.sim(), BenchEchoServer(rig.api, 7000, clients));
  machine.sim().RunUntilIdle();
  Processor client_cpu(&machine.sim(), machine.host_device(), 64, 1.0,
                       "client");
  Histogram latencies;
  WaitGroup wg(&machine.sim());
  for (int c = 0; c < clients; ++c) {
    wg.Add(1);
    Spawn(machine.sim(),
          PingPongClient(&machine.ethernet(), &client_cpu,
                         0x0a000000u + static_cast<uint32_t>(c), 7000,
                         pings, size, &machine.sim(), &latencies, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  if (!trace_out.empty()) {
    CHECK_OK(tracer.ExportChromeTraceToFile(trace_out));
    std::cout << "trace written to " << trace_out << "\n";
  }
  return ComputeStageBreakdowns(tracer);
}

// Measures one-way streaming throughput (bytes/sec).
inline double MeasureNetThroughput(NetConfigKind kind, uint32_t size,
                                   int connections, int messages) {
  NetRig rig(kind);
  Machine& machine = *rig.machine;
  Spawn(machine.sim(),
        DrainServer(rig.api, 7000, connections, messages));
  machine.sim().RunUntilIdle();
  Processor client_cpu(&machine.sim(), machine.host_device(), 64, 1.0,
                       "client");
  WaitGroup wg(&machine.sim());
  SimTime t0 = machine.sim().now();
  for (int c = 0; c < connections; ++c) {
    wg.Add(1);
    Spawn(machine.sim(),
          StreamClient(&machine.ethernet(), &client_cpu,
                       0x0a000000u + static_cast<uint32_t>(c), 7000,
                       messages, size, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t bytes =
      uint64_t{static_cast<uint64_t>(connections)} * messages * size;
  return RateBps(bytes, machine.sim().now() - t0);
}

}  // namespace solros

#endif  // SOLROS_BENCH_NET_WORKLOAD_H_
