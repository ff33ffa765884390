// Network workloads: net_storm (closed-loop echo over ~16k connections on
// the batching stack with 4 proxy shards) and net_echo_open (open-loop
// Poisson echo on the default path, with a ladder of offered rates). Every
// echo is compared byte for byte with what was sent.
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <vector>

#include "perfbench/common.h"
#include "src/base/prng.h"
#include "src/sim/sync.h"

namespace perfbench {

using namespace solros;

namespace {

constexpr uint16_t kPort = 7000;
constexpr uint32_t kClientBase = 0x0a000000u;

// Serves one connection: echo every message until the peer closes.
Task<void> EchoConnection(ServerSocketApi* api, int64_t sock) {
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

// Listens on kPort (the shared listening socket when several phis listen)
// and accepts `connections` clients.
Task<void> EchoServer(ServerSocketApi* api, int connections,
                      uint64_t* failures) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(kPort, 256);
  if (!listener.ok()) {
    ++*failures;
    co_return;
  }
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    if (!sock.ok()) {
      ++*failures;
      co_return;
    }
    Spawn(*sim, EchoConnection(api, *sock));
  }
}

uint64_t MessageKey(uint64_t seed, uint64_t conn, uint64_t index) {
  return (seed << 40) ^ (conn << 20) ^ index;
}

// One echo round trip (send, then wait for the reply) under an optional
// root span; true when the reply is byte-identical to the request.
Task<bool> RoundTrip(EthernetFabric* eth, Processor* cpu, Tracer* tracer,
                     uint64_t conn, std::span<const uint8_t> payload) {
  TraceContext root;
  if (tracer != nullptr) {
    root.trace_id = tracer->NewTraceId();
  }
  ScopedSpan op(tracer, "client", "net.client.op", root);
  if (!(co_await eth->ClientSend(conn, payload, cpu, op.context())).ok()) {
    co_return false;
  }
  auto echoed = co_await eth->ClientRecv(conn);
  co_return echoed.ok() && echoed->size() == payload.size() &&
      std::equal(payload.begin(), payload.end(), echoed->begin());
}

// ---------------------------------------------------------------------------
// net_storm
// ---------------------------------------------------------------------------

constexpr int kStormPhis = 4;
constexpr int kStormShards = 4;
constexpr int kStormConns = 8192;
constexpr int kStormPings = 2;         // measured round trips per connection
constexpr uint64_t kHeavyOneIn = 64;   // share of heavy connections
constexpr uint32_t kLightBytes = 64;
constexpr uint32_t kHeavyMinBytes = KiB(16);
constexpr uint32_t kHeavySpanBytes = KiB(32);
constexpr Nanos kStormThink = Microseconds(200);
constexpr uint64_t kStormSampleOneIn = 16;

struct StormRun {
  Simulator* sim = nullptr;
  EthernetFabric* eth = nullptr;
  Processor* cpu = nullptr;
  Tracer* tracer = nullptr;  // bound at the measured-phase boundary
  uint64_t seed = 0;
  Samples samples;
  uint64_t setup_failures = 0;
  std::unique_ptr<Condition> go;
  std::unique_ptr<WaitGroup> warm;
  std::unique_ptr<WaitGroup> done;
};

Task<void> StormClient(StormRun* run, int index) {
  Prng prng(MessageKey(run->seed, static_cast<uint64_t>(index), 0xffff));
  // Exactly one connection in kHeavyOneIn is heavy; the seed picks which.
  const bool heavy = (index + run->seed) % kHeavyOneIn == 0;
  const SimTime c0 = run->sim->now();
  auto conn = co_await run->eth->ClientConnect(
      kClientBase + static_cast<uint32_t>(index), kPort, run->cpu);
  bool alive = conn.ok();
  if (alive) {
    run->samples.connect.push_back(run->sim->now() - c0);
    // One untimed round trip so every connection is established end to end.
    std::vector<uint8_t> hello(kLightBytes);
    FillPayload(hello, MessageKey(run->seed, index, 0xfffe));
    alive = co_await RoundTrip(run->eth, run->cpu, nullptr, *conn, hello);
  }
  if (!alive) {
    ++run->setup_failures;
  }
  run->warm->Done();
  co_await run->go->Wait();
  for (int i = 0; alive && i < kStormPings; ++i) {
    co_await Delay(static_cast<Nanos>(prng.NextBelow(kStormThink)));
    const uint32_t size =
        heavy ? kHeavyMinBytes + static_cast<uint32_t>(
                                     prng.NextBelow(kHeavySpanBytes))
              : kLightBytes;
    std::vector<uint8_t> payload(size);
    FillPayload(payload, MessageKey(run->seed, index, i));
    const SimTime t0 = run->sim->now();
    alive = co_await RoundTrip(run->eth, run->cpu, run->tracer, *conn, payload);
    if (alive) {
      const uint64_t latency = run->sim->now() - t0;
      ++run->samples.ok;
      run->samples.payload_bytes += 2ull * size;
      run->samples.all.push_back(latency);
      if (!heavy) {
        run->samples.victim.push_back(latency);
      }
    }
  }
  if (conn.ok()) {
    co_await run->eth->ClientClose(*conn, run->cpu);
  }
  run->done->Done();
}

}  // namespace

Rep RunNetStorm(const RepOptions& options) {
  Rep rep;
  const double t_start = HostSeconds();
  std::unique_ptr<Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<Tracer>();
    // Tail-based sampling keeps the traced run's memory bounded at 16k
    // connections; stage p99s come from the kept traces.
    tracer->EnableSampling(kStormSampleOneIn);
  }
  MachineConfig config;
  config.num_phis = kStormPhis;
  config.proxy_shards = kStormShards;
  config.nvme_capacity = MiB(64);
  config.net_options.coalescing = true;
  config.net_options.vectored_push = true;
  config.net_options.adaptive_copy = true;
  config.net_options.drr_dispatch = true;
  config.net_options.net_plug_window_ns = Microseconds(40);
  static bool printed = false;
  PrintConfigOnce(&printed,
                  "net_storm phis=4 proxy_shards=4 nvme=64MiB net=coalescing+"
                  "vectored_push+adaptive_copy+drr_dispatch plug_window=40us "
                  "conns=8192 (1/64 heavy 16-48KiB, rest 64B) pings=2 "
                  "think=U[0,200us) closed loop, trace sampling 1/16");

  double t = HostSeconds();
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  rep.host["core.build_s"] = HostSeconds() - t;

  StormRun run;
  run.sim = &sim;
  run.eth = &machine.ethernet();
  run.seed = options.seed;
  run.go = std::make_unique<Condition>(&sim);
  run.warm = std::make_unique<WaitGroup>(&sim);
  run.done = std::make_unique<WaitGroup>(&sim);
  Processor client_cpu(&sim, machine.host_device(), 256, 1.0, "client");
  run.cpu = &client_cpu;

  t = HostSeconds();
  const int per_phi = kStormConns / kStormPhis;
  for (int p = 0; p < kStormPhis; ++p) {
    Spawn(sim, EchoServer(&machine.net_stub(p), per_phi, &run.setup_failures));
  }
  sim.RunUntilIdle();
  for (int c = 0; c < kStormConns; ++c) {
    run.warm->Add(1);
    run.done->Add(1);
    Spawn(sim, StormClient(&run, c));
  }
  sim.RunUntilIdle();
  run.setup_failures += run.warm->outstanding();
  rep.host["net.connect_s"] = HostSeconds() - t;
  rep.host["setup_s"] = HostSeconds() - t_start;
  rep.probe_mid_s = ProbeSeconds();

  const Probe before = TakeProbe(machine, true);
  if (tracer != nullptr) {
    tracer->Bind(&sim);
    run.tracer = tracer.get();
  }
  const double w0 = HostSeconds();
  const SimTime t0 = sim.now();
  run.go->NotifyAll();
  const uint64_t events = sim.RunUntilIdle();
  rep.host["wall_s"] = HostSeconds() - w0;
  const Nanos elapsed = sim.now() - t0;

  constexpr uint64_t kPlanned = uint64_t{kStormConns} * kStormPings;
  rep.attempted = kPlanned + run.setup_failures;
  rep.failed = kPlanned - run.samples.ok + run.setup_failures;
  RecordMetrics(before, TakeProbe(machine, true), run.samples, elapsed, events,
                &rep);
  if (tracer != nullptr) {
    RecordStages(*tracer, &rep);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// net_echo_open
// ---------------------------------------------------------------------------

namespace {

constexpr int kOpenConns = 8;
constexpr uint32_t kOpenLightBytes = 64;
constexpr uint32_t kOpenHeavyBytes = KiB(32);
constexpr double kOpenHeavyShare = 0.1;
constexpr Nanos kRungArrivals = Milliseconds(250);
// The reference rung runs longer so its p99s rest on ~64k samples.
constexpr Nanos kReferenceArrivals = Seconds(4);
// Offered rates (kops/s, all connections together); the reference rung
// reports the latency metrics.
constexpr double kLadderKops[] = {8, 16, 20, 24, 28, 32};
constexpr int kReferenceRung = 1;
// SLO: a rung meets it when its p99 stays within this limit and its backlog
// does not grow (outstanding requests at the end of the arrival window at
// most twice those at its midpoint, plus slack).
constexpr double kSloP99Us = 500.0;
constexpr uint64_t kBacklogSlack = 8;

struct Pending {
  SimTime due = 0;
  uint64_t key = 0;
  uint32_t size = 0;
  uint64_t span = 0;  // open root span (traced run)
};

struct OpenConn {
  uint64_t conn = 0;
  std::vector<Pending> arrivals;  // precomputed schedule
  std::deque<Pending> in_flight;  // sent, reply not yet received
};

struct Rung {
  Simulator* sim = nullptr;
  EthernetFabric* eth = nullptr;
  Processor* cpu = nullptr;
  Tracer* tracer = nullptr;
  Samples samples;
  uint64_t outstanding = 0;
  uint64_t backlog_peak = 0;
  uint64_t backlog_mid = 0;
  uint64_t backlog_end = 0;
};

Task<void> OpenSender(Rung* rung, OpenConn* oc) {
  for (Pending p : oc->arrivals) {
    const SimTime now = rung->sim->now();
    if (p.due > now) {
      co_await Delay(p.due - now);
    }
    rung->samples.late.push_back(rung->sim->now() - p.due);
    std::vector<uint8_t> payload(p.size);
    FillPayload(payload, p.key);
    TraceContext ctx;
    if (rung->tracer != nullptr) {
      TraceContext root;
      root.trace_id = rung->tracer->NewTraceId();
      p.span = rung->tracer->BeginSpan("client", "net.client.op", root);
      ctx = rung->tracer->ContextOf(p.span);
    }
    oc->in_flight.push_back(p);
    ++rung->outstanding;
    rung->backlog_peak = std::max(rung->backlog_peak, rung->outstanding);
    if (!(co_await rung->eth->ClientSend(oc->conn, payload, rung->cpu, ctx))
             .ok()) {
      co_return;  // the receiver stalls and the rest count as failed
    }
  }
}

Task<void> OpenReceiver(Rung* rung, OpenConn* oc) {
  for (size_t i = 0; i < oc->arrivals.size(); ++i) {
    auto echoed = co_await rung->eth->ClientRecv(oc->conn);
    if (!echoed.ok() || oc->in_flight.empty()) {
      co_return;
    }
    const Pending p = oc->in_flight.front();
    oc->in_flight.pop_front();
    --rung->outstanding;
    if (rung->tracer != nullptr) {
      rung->tracer->EndSpan(p.span);
    }
    std::vector<uint8_t> expected(p.size);
    FillPayload(expected, p.key);
    if (*echoed != expected) {
      continue;  // failed: the run counts planned minus completed requests
    }
    // Open loop: timed from when the request was due, not when it left.
    const uint64_t latency = rung->sim->now() - p.due;
    ++rung->samples.ok;
    rung->samples.payload_bytes += 2ull * p.size;
    rung->samples.all.push_back(latency);
    if (p.size == kOpenLightBytes) {
      rung->samples.victim.push_back(latency);
    }
  }
}

// Samples the backlog at the middle and the end of the arrival window.
Task<void> BacklogMonitor(Rung* rung, SimTime start, Nanos window) {
  co_await Delay(start + window / 2 - rung->sim->now());
  rung->backlog_mid = rung->outstanding;
  co_await Delay(start + window - rung->sim->now());
  rung->backlog_end = rung->outstanding;
}

}  // namespace

Rep RunNetEchoOpen(const RepOptions& options) {
  Rep rep;
  const double t_start = HostSeconds();
  std::unique_ptr<Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<Tracer>();
  }
  MachineConfig config;
  config.num_phis = 1;
  config.proxy_shards = 1;
  config.nvme_capacity = MiB(64);
  static bool printed = false;
  const bool print_rungs = !printed;  // the ladder prints once per process
  PrintConfigOnce(&printed,
                  "net_echo_open phis=1 proxy_shards=1 nvme=64MiB net=default "
                  "(unbatched) conns=8 open-loop Poisson, 90% 64B / 10% 32KiB, "
                  "arrivals 4s at the 16 kops reference rung and 250ms at 8,20,24,28,"
                  "32 kops, SLO p99<=500us and no backlog growth");

  double t = HostSeconds();
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  rep.host["core.build_s"] = HostSeconds() - t;
  Processor client_cpu(&sim, machine.host_device(), 64, 1.0, "client");
  EthernetFabric& eth = machine.ethernet();

  t = HostSeconds();
  uint64_t setup_failures = 0;
  std::vector<uint64_t> connect_ns;
  std::vector<OpenConn> conns(kOpenConns);
  Spawn(sim, EchoServer(&machine.net_stub(0), kOpenConns, &setup_failures));
  sim.RunUntilIdle();
  for (int c = 0; c < kOpenConns; ++c) {
    const SimTime c0 = sim.now();
    auto conn =
        RunSim(sim, eth.ClientConnect(kClientBase + c, kPort, &client_cpu));
    if (!conn.ok()) {
      ++setup_failures;
      continue;
    }
    connect_ns.push_back(sim.now() - c0);
    conns[c].conn = *conn;
    std::vector<uint8_t> hello(kOpenLightBytes);
    FillPayload(hello, MessageKey(options.seed, c, 0xfffe));
    if (!RunSim(sim, RoundTrip(&eth, &client_cpu, nullptr, *conn, hello))) {
      ++setup_failures;
    }
  }
  rep.host["net.connect_s"] = HostSeconds() - t;
  rep.host["setup_s"] = HostSeconds() - t_start;
  rep.probe_mid_s = ProbeSeconds();

  const Probe before = TakeProbe(machine, true);
  if (tracer != nullptr) {
    tracer->Bind(&sim);
  }
  const double w0 = HostSeconds();
  const SimTime t0 = sim.now();
  uint64_t events = 0;
  uint64_t planned = 0;
  double slo_kops = 0.0;
  Samples reference;
  uint64_t reference_backlog = 0;
  uint64_t other_ok = 0;
  uint64_t other_bytes = 0;
  for (int r = 0; r < static_cast<int>(std::size(kLadderKops)); ++r) {
    Rung rung;
    rung.sim = &sim;
    rung.eth = &eth;
    rung.cpu = &client_cpu;
    rung.tracer = r == kReferenceRung ? tracer.get() : nullptr;
    const SimTime start = sim.now();
    const double per_conn_rate = kLadderKops[r] * 1e3 / kOpenConns;  // per s
    const Nanos window =
        r == kReferenceRung ? kReferenceArrivals : kRungArrivals;
    uint64_t rung_planned = 0;
    for (int c = 0; c < kOpenConns; ++c) {
      OpenConn& oc = conns[c];
      oc.arrivals.clear();
      oc.in_flight.clear();
      Prng prng(MessageKey(options.seed, c, 0x1000 + r));
      double at = 0.0;
      while (true) {
        // Poisson process: exponential inter-arrival gaps.
        at += -std::log(1.0 - prng.NextDouble()) / per_conn_rate * 1e9;
        if (at >= static_cast<double>(window)) {
          break;
        }
        Pending p;
        p.due = start + static_cast<SimTime>(at);
        p.key = MessageKey(options.seed, c, oc.arrivals.size() + (r << 16));
        p.size = prng.NextDouble() < kOpenHeavyShare ? kOpenHeavyBytes
                                                     : kOpenLightBytes;
        oc.arrivals.push_back(p);
      }
      rung_planned += oc.arrivals.size();
      if (oc.conn != 0) {
        Spawn(sim, OpenSender(&rung, &oc));
        Spawn(sim, OpenReceiver(&rung, &oc));
      }
    }
    Spawn(sim, BacklogMonitor(&rung, start, window));
    events += sim.RunUntilIdle();
    planned += rung_planned;
    const double p99 = PercentileUs(rung.samples.all, 0.99);
    const bool stable =
        rung.backlog_end <= 2 * rung.backlog_mid + kBacklogSlack;
    const bool complete = rung.samples.ok == rung_planned;
    if (p99 <= kSloP99Us && stable && complete) {
      slo_kops = kLadderKops[r];
    }
    if (print_rungs) {
      std::cout << "rung " << kLadderKops[r] << " kops: ops=" << rung.samples.ok
              << "/" << rung_planned << " p50_us="
              << PercentileUs(rung.samples.all, 0.5) << " p99_us=" << p99
              << " backlog mid/end/peak=" << rung.backlog_mid << "/"
              << rung.backlog_end << "/" << rung.backlog_peak
                << (p99 <= kSloP99Us && stable && complete ? " meets SLO"
                                                            : " misses SLO")
                << "\n";
    }
    if (r == kReferenceRung) {
      reference = std::move(rung.samples);
      reference_backlog = rung.backlog_peak;
    } else {
      other_ok += rung.samples.ok;
      other_bytes += rung.samples.payload_bytes;
    }
  }
  rep.host["wall_s"] = HostSeconds() - w0;
  const Nanos elapsed = sim.now() - t0;

  // Throughput covers the whole ladder; latency is the reference rung's.
  const uint64_t reference_ok = reference.ok;
  reference.ok += other_ok;
  reference.payload_bytes += other_bytes;
  reference.connect = std::move(connect_ns);
  rep.attempted = planned + setup_failures;
  rep.failed = planned - reference.ok + setup_failures;
  RecordMetrics(before, TakeProbe(machine, true), reference, elapsed, events,
                &rep);
  rep.exact["slo_kops"] = slo_kops;
  rep.exact["gen.backlog_peak"] = static_cast<double>(reference_backlog);
  rep.exact["gen.reference_ops"] = static_cast<double>(reference_ok);
  if (tracer != nullptr) {
    RecordStages(*tracer, &rep);
  }
  return rep;
}

}  // namespace perfbench
