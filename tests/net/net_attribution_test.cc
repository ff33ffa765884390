// Net-path attribution exactness through the full machine: in a fault-free
// run every net trace's stages sum to its root span exactly; armed rpc.*
// faults produce clamped (never negative) stages with `exact` cleared; and
// the streaming SLO watchdog agrees with the batch pass.
#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <vector>

#include "src/base/fault.h"
#include "src/core/machine.h"
#include "src/sim/attribution.h"
#include "src/sim/slo_watchdog.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

Task<void> EchoServer(ServerSocketApi* api, uint16_t port) {
  auto listener = co_await api->Listen(port, 8);
  CHECK_OK(listener);
  auto sock = co_await api->Accept(*listener);
  CHECK_OK(sock);
  while (true) {
    auto message = co_await api->Recv(*sock);
    if (!message.ok()) {
      break;
    }
    CHECK_OK(co_await api->Send(*sock, *message));
  }
}

// One connection, `pings` traced echo round trips (the fig14 client shape:
// each ping roots a net.client.op span and threads its context down the
// wire).
Task<void> TracedPings(EthernetFabric* eth, Processor* cpu, uint16_t port,
                       int pings, Simulator* sim, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(0x0a000001u, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(256, 0x5a);
  Tracer* tracer = sim->tracer();
  for (int i = 0; i < pings; ++i) {
    TraceContext root_ctx;
    if (tracer != nullptr) {
      root_ctx.trace_id = tracer->NewTraceId();
    }
    ScopedSpan op(tracer, "client", "net.client.op", root_ctx);
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu, op.context()));
    auto echoed = co_await eth->ClientRecv(*conn);
    CHECK_OK(echoed);
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

TEST(NetAttributionTest, FaultFreeEchoStagesSumExactly) {
  ASSERT_FALSE(Faults().any_armed());
  // Declared before the machine: coroutine frames owned by the simulator
  // hold ScopedSpans into the tracer.
  Tracer tracer;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  Machine machine(std::move(config));
  tracer.Bind(&machine.sim());
  Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 6000));
  machine.sim().RunUntilIdle();

  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), TracedPings(&machine.ethernet(), &client, 6000, 20,
                                   &machine.sim(), &wg));
  machine.sim().RunUntilIdle();
  ASSERT_EQ(wg.outstanding(), 0u);

  auto breakdowns = ComputeStageBreakdowns(tracer);
  int echo_roots = 0;
  for (const StageBreakdown& b : breakdowns) {
    EXPECT_TRUE(b.net);
    EXPECT_TRUE(b.exact) << "trace " << b.trace_id;
    EXPECT_EQ(StageSum(b), b.total) << "trace " << b.trace_id;
    // Echo round trips cross the wire; control RPCs (Listen/Accept) don't.
    if (b.wire > 0) {
      ++echo_roots;
      EXPECT_GT(b.proxy, 0u);
    }
  }
  EXPECT_EQ(echo_roots, 20);
}

// Untraced filler + traced ping sent back-to-back on one socket: with a
// plug window wider than the proxy's per-message service time, the pair
// rides one kBatch push each way. The traced round trip must stay exact:
// each plug it crosses records one net.plug.wait span for it at flush.
Task<void> BatchedPings(EthernetFabric* eth, Processor* cpu, uint16_t port,
                        int rounds, Simulator* sim, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(0x0a000001u, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> filler(64, 0x0f);
  std::vector<uint8_t> payload(256, 0x5a);
  Tracer* tracer = sim->tracer();
  for (int i = 0; i < rounds; ++i) {
    TraceContext root_ctx;
    if (tracer != nullptr) {
      root_ctx.trace_id = tracer->NewTraceId();
    }
    ScopedSpan op(tracer, "client", "net.client.op", root_ctx);
    CHECK_OK(co_await eth->ClientSend(*conn, filler, cpu));
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu, op.context()));
    auto first = co_await eth->ClientRecv(*conn);
    CHECK_OK(first);
    CHECK_EQ(first->size(), filler.size());
    auto second = co_await eth->ClientRecv(*conn);
    CHECK_OK(second);
    CHECK_EQ(second->size(), payload.size());
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

uint64_t PlugEventsPushed() {
  return MetricRegistry::Default()
             .GetCounter("net.proxy.events_pushed")
             ->value() +
         MetricRegistry::Default()
             .GetCounter("net.stub.events_pushed")
             ->value();
}

uint64_t PlugDoorbells() {
  return MetricRegistry::Default().GetCounter("net.proxy.doorbells")->value() +
         MetricRegistry::Default().GetCounter("net.stub.doorbells")->value();
}

TEST(NetAttributionTest, BatchedEchoSumsExactly) {
  ASSERT_FALSE(Faults().any_armed());
  Tracer tracer;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  // Wider than the proxy's ~7us per-message inbound service time so the
  // back-to-back pair is still queued together when the plug timer fires.
  config.net_options.net_plug_window_ns = Microseconds(50);
  Machine machine(std::move(config));
  tracer.Bind(&machine.sim());
  Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 6100));
  machine.sim().RunUntilIdle();

  const uint64_t events0 = PlugEventsPushed();
  const uint64_t doorbells0 = PlugDoorbells();

  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  const int rounds = 10;
  Spawn(machine.sim(), BatchedPings(&machine.ethernet(), &client, 6100,
                                    rounds, &machine.sim(), &wg));
  machine.sim().RunUntilIdle();
  ASSERT_EQ(wg.outstanding(), 0u);

  // Batches actually formed: some doorbell carried more than one event.
  EXPECT_GT(PlugEventsPushed() - events0, PlugDoorbells() - doorbells0);

  // Every traced ping waited in two plugs: the proxy's on the way in and
  // the stub's on the way out.
  std::map<uint64_t, int> plug_waits;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.name == "net.plug.wait") {
      ++plug_waits[span.trace_id];
    }
  }

  auto breakdowns = ComputeStageBreakdowns(tracer);
  int echo_roots = 0;
  for (const StageBreakdown& b : breakdowns) {
    EXPECT_TRUE(b.net);
    EXPECT_TRUE(b.exact) << "trace " << b.trace_id;
    EXPECT_EQ(StageSum(b), b.total) << "trace " << b.trace_id;
    if (b.wire > 0) {
      ++echo_roots;
      EXPECT_EQ(plug_waits[b.trace_id], 2) << "trace " << b.trace_id;
    }
  }
  EXPECT_EQ(echo_roots, rounds);
}

// Byte integrity through kBatch splitting under armed faults: ring
// send/recv stalls hit the batched data path directly, and rpc.* response
// drops (with generous retry) exercise the control plane around it. Every
// echoed message must come back byte-identical and correctly framed.
Task<void> PatternedPipelinedPings(EthernetFabric* eth, Processor* cpu,
                                   uint16_t port, int rounds,
                                   WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(0x0a000001u, port, cpu);
  CHECK_OK(conn);
  for (int i = 0; i < rounds; ++i) {
    // Two per-round distinct patterns so byte mixing across a batch's
    // events or a mis-split length would be caught, not just payload loss.
    std::vector<uint8_t> a(static_cast<size_t>(1 + (i * 37) % 700),
                           static_cast<uint8_t>(2 * i + 1));
    std::vector<uint8_t> b(static_cast<size_t>(1 + (i * 53) % 900),
                           static_cast<uint8_t>(2 * i + 2));
    CHECK_OK(co_await eth->ClientSend(*conn, a, cpu));
    CHECK_OK(co_await eth->ClientSend(*conn, b, cpu));
    auto echo_a = co_await eth->ClientRecv(*conn);
    CHECK_OK(echo_a);
    CHECK(*echo_a == a);
    auto echo_b = co_await eth->ClientRecv(*conn);
    CHECK_OK(echo_b);
    CHECK(*echo_b == b);
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

TEST(NetAttributionTest, BatchSplitPreservesBytesUnderFaults) {
  ASSERT_FALSE(Faults().any_armed());
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.net_options.net_plug_window_ns = Microseconds(50);
  Machine machine(std::move(config));
  RpcRetryOptions retry;
  retry.max_attempts = 8;
  retry.timeout = Milliseconds(5);
  retry.backoff = Microseconds(10);
  machine.net_stub(0).set_retry_options(retry);
  Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 6200));
  machine.sim().RunUntilIdle();

  // Armed after listen/accept setup so the storm of setup RPCs doesn't
  // consume the deterministic fault schedule before the data path runs.
  CHECK_OK(Faults().Arm("transport.ring.send_stall", FaultSpec::EveryNth(5)));
  CHECK_OK(Faults().Arm("transport.ring.recv_stall", FaultSpec::EveryNth(7)));
  CHECK_OK(Faults().Arm("rpc.drop.response", FaultSpec::EveryNth(3)));

  const uint64_t events0 = PlugEventsPushed();
  const uint64_t doorbells0 = PlugDoorbells();
  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), PatternedPipelinedPings(&machine.ethernet(), &client,
                                               6200, 30, &wg));
  machine.sim().RunUntilIdle();
  Faults().DisarmAll();
  ASSERT_EQ(wg.outstanding(), 0u);
  // The faults hit kBatch records, not only single-event pushes.
  EXPECT_GT(PlugEventsPushed() - events0, PlugDoorbells() - doorbells0);
}

TEST(NetAttributionTest, DroppedResponsesClampAndClearExact) {
  Tracer tracer;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  Machine machine(std::move(config));
  tracer.Bind(&machine.sim());
  // Every response dropped + a timeout far below the proxy's service time:
  // the stub gives up while the proxy-side spans are still in flight, so
  // they close outside the root span and the residual subtraction clamps.
  CHECK_OK(Faults().Arm("rpc.drop.response", FaultSpec::EveryNth(1)));
  RpcRetryOptions retry;
  retry.max_attempts = 2;
  retry.timeout = Nanoseconds(200);
  retry.backoff = Nanoseconds(100);
  machine.net_stub(0).set_retry_options(retry);

  auto listener = RunSim(machine.sim(), machine.net_stub(0).Listen(7000, 8));
  EXPECT_FALSE(listener.ok());
  machine.sim().RunUntilIdle();  // drain the overrunning proxy work
  Faults().DisarmAll();

  auto breakdowns = ComputeStageBreakdowns(tracer);
  ASSERT_FALSE(breakdowns.empty());
  bool any_clamped = false;
  for (const StageBreakdown& b : breakdowns) {
    EXPECT_TRUE(b.net);
    if (!b.exact) {
      any_clamped = true;
    }
    // Clamped, never negative (the fields are unsigned: a wrapped
    // subtraction would blow far past any simulated duration).
    EXPECT_LE(b.stub, b.total);
    EXPECT_LT(b.proxy, Seconds(1));
  }
  EXPECT_TRUE(any_clamped);
}

// The first stage of `b`, in blame order, over a 1 ns budget (total
// skipped when unarmed); empty when none.
std::string_view FirstStageOverOneNs(const StageBreakdown& b,
                                     bool total_armed) {
  for (size_t i = 0; i < kStageCount; ++i) {
    if ((total_armed || static_cast<Stage>(i) != Stage::kTotal) &&
        b.*kStages[i].field > 1) {
      return kStages[i].name;
    }
  }
  return {};
}

// The SLO watchdog accumulates each trace as its spans close; the batch
// pass reads the finished trace. Over traced FS reads and net echoes (plus
// the Listen/Accept control RPCs), with every stage budget at 1 ns, both
// must see the same requests and the watchdog must blame the stage the
// batch breakdown puts first over budget. The second pass leaves total
// unarmed so the blame falls to the inner stages.
TEST(NetAttributionTest, StreamingWatchdogMatchesBatchBreakdowns) {
  ASSERT_FALSE(Faults().any_armed());
  for (bool total_armed : {true, false}) {
    SCOPED_TRACE(total_armed ? "all stages armed" : "total unarmed");
    Tracer tracer;
    MachineConfig config;
    config.num_phis = 1;
    config.nvme_capacity = MiB(64);
    Machine machine(std::move(config));
    CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
    FsStub& fs = machine.fs_stub(0);
    auto ino = RunSim(machine.sim(), fs.Create("/slo"));
    ASSERT_TRUE(ino.ok());
    DeviceBuffer buffer(machine.phi_device(0), KiB(64));
    CHECK_OK(RunSim(machine.sim(), fs.Write(*ino, 0, MemRef::Of(buffer))));

    tracer.Bind(&machine.sim());
    SloBudgets budgets;
    budgets.ns.fill(1);
    if (!total_armed) {
      budgets[Stage::kTotal] = 0;
    }
    SloWatchdog watchdog(budgets);
    watchdog.Bind(&tracer);
    for (int i = 0; i < 4; ++i) {
      DeviceBuffer target(machine.phi_device(0), KiB(16));
      ASSERT_TRUE(RunSim(machine.sim(), fs.Read(*ino, i * KiB(16),
                                                MemRef::Of(target)))
                      .ok());
      // Each read's root closed last: blame matches its breakdown.
      auto so_far = ComputeStageBreakdowns(tracer);
      ASSERT_EQ(so_far.size(), static_cast<size_t>(i + 1));
      EXPECT_EQ(watchdog.worst_stage(),
                FirstStageOverOneNs(so_far.back(), total_armed));
    }
    Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 6300));
    machine.sim().RunUntilIdle();
    Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
    WaitGroup wg(&machine.sim());
    wg.Add(1);
    Spawn(machine.sim(), TracedPings(&machine.ethernet(), &client, 6300, 4,
                                     &machine.sim(), &wg));
    machine.sim().RunUntilIdle();
    ASSERT_EQ(wg.outstanding(), 0u);

    auto breakdowns = ComputeStageBreakdowns(tracer);
    ASSERT_GE(breakdowns.size(), 8u);  // 4 reads + 4 echoes + control RPCs
    uint64_t over = 0;
    for (const StageBreakdown& b : breakdowns) {
      if (!FirstStageOverOneNs(b, total_armed).empty()) {
        ++over;
      }
    }
    EXPECT_EQ(watchdog.roots_seen(), breakdowns.size());
    EXPECT_EQ(watchdog.violations(), over);
    if (total_armed) {
      EXPECT_EQ(watchdog.violations(), breakdowns.size());
    }
    // The last echo's root is both the highest trace id and the last root
    // to close.
    EXPECT_TRUE(breakdowns.back().net);
    EXPECT_EQ(watchdog.worst_stage(),
              FirstStageOverOneNs(breakdowns.back(), total_armed));
    // Spans the machine's teardown closes must not reach the watchdog.
    tracer.set_span_close_listener(nullptr);
  }
}

}  // namespace
}  // namespace solros
