// The send-side plug and per-connection state at scale: the plug batches
// in send order, and connection churn (which grows and rehashes the
// per-connection tables while other connections are mid-message) leaves
// every echo transcript byte-identical to a churn-free run, under every
// plug window and shard count.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/units.h"
#include "src/core/machine.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/net/net_frame.h"
#include "src/net/net_plug.h"
#include "src/sim/sync.h"
#include "src/transport/sim_ring.h"

namespace solros {
namespace {

struct PlugRig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu{&sim, host, 48, 1.0, "host"};
  Processor phi_cpu{&sim, phi, 244, 0.125, "phi"};

  // Host -> phi ring, master at the host (the proxy's inbound ring).
  SimRingConfig InboundConfig() {
    SimRingConfig config;
    config.capacity = MiB(4);
    config.master_device = host;
    config.producer_device = host;
    config.consumer_device = phi;
    config.producer_cpu = &host_cpu;
    config.consumer_cpu = &phi_cpu;
    return config;
  }
};

// Sends `count` 16-byte kData events, socket ids first_sock, first_sock+1,
// ...; with a window every Send completes without suspending (far below
// the staging cap).
Task<void> SendEvents(NetPlug* plug, int64_t first_sock, int count) {
  for (int64_t sock = first_sock; sock < first_sock + count; ++sock) {
    std::vector<uint8_t> payload(16, static_cast<uint8_t>(sock));
    NetEvent header;
    header.kind = NetEventKind::kData;
    header.sock = sock;
    header.length = static_cast<uint32_t>(payload.size());
    CHECK_OK(co_await plug->Send(header, payload));
  }
}

// Drains ring records until the ring closes, appending each event's socket
// and each record's event count.
Task<void> DrainEvents(SimRing* ring, std::vector<int64_t>* socks,
                       std::vector<size_t>* per_record) {
  std::vector<uint8_t> record;
  std::vector<NetFrameView> events;
  while (true) {
    if (!(co_await ring->Receive(&record)).ok()) {
      break;
    }
    SplitRecord(record, &events);
    per_record->push_back(events.size());
    for (const NetFrameView& event : events) {
      CHECK(event.header.kind == NetEventKind::kData);
      CHECK_EQ(event.body.size(), 16u);
      CHECK_EQ(event.body[0], static_cast<uint8_t>(event.header.sock));
      socks->push_back(event.header.sock);
    }
  }
}

std::vector<int64_t> Iota(int64_t first, int count) {
  std::vector<int64_t> out;
  for (int64_t sock = first; sock < first + count; ++sock) {
    out.push_back(sock);
  }
  return out;
}

// A zero window pushes every event on its own, at once.
TEST(NetPlugTest, ZeroWindowPushesEachEvent) {
  PlugRig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.InboundConfig());
  NetPlug plug(&rig.sim, &ring, /*window=*/0, "net.plugtest");
  std::vector<int64_t> socks;
  std::vector<size_t> per_record;
  Spawn(rig.sim, DrainEvents(&ring, &socks, &per_record));
  Spawn(rig.sim, SendEvents(&plug, 1, 3));
  rig.sim.RunUntilIdle();
  EXPECT_EQ(plug.doorbells(), 3u);
  EXPECT_EQ(plug.backlog_bytes(), 0u);
  EXPECT_EQ(per_record, (std::vector<size_t>{1, 1, 1}));
  EXPECT_EQ(socks, Iota(1, 3));
  ring.Close();
  rig.sim.RunUntilIdle();
}

// With a window, queued events ride one kBatch push at most one window
// later, or at once when a full push's worth is queued; order holds.
TEST(NetPlugTest, WindowBatchesEventsInSendOrder) {
  PlugRig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.InboundConfig());
  const Nanos window = Microseconds(10);
  NetPlug plug(&rig.sim, &ring, window, "net.plugtest");
  std::vector<int64_t> socks;
  std::vector<size_t> per_record;
  Spawn(rig.sim, DrainEvents(&ring, &socks, &per_record));

  const SimTime t0 = rig.sim.now();
  Spawn(rig.sim, SendEvents(&plug, 1, 5));
  rig.sim.RunUntil(t0 + window - 1);
  EXPECT_EQ(plug.doorbells(), 0u);
  EXPECT_GT(plug.backlog_bytes(), 0u);
  rig.sim.RunUntilIdle();
  EXPECT_EQ(plug.doorbells(), 1u);
  EXPECT_EQ(plug.backlog_bytes(), 0u);

  // 40 more: a full push of kMaxEventsPerPush flushes at once, and the
  // rest follows in the next frame.
  Spawn(rig.sim, SendEvents(&plug, 6, 40));
  rig.sim.RunUntilIdle();
  EXPECT_EQ(plug.doorbells(), 3u);
  EXPECT_EQ(plug.events_pushed(), 45u);
  EXPECT_EQ(per_record,
            (std::vector<size_t>{5, NetPlug::kMaxEventsPerPush, 8}));
  EXPECT_EQ(socks, Iota(1, 45));
  ring.Close();
  rig.sim.RunUntilIdle();
}

// Echoes until the peer closes, then closes the stub socket too, so the
// stub's and the proxy's socket tables shrink as well as grow.
Task<void> EchoAndClose(ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok()) {
      break;
    }
    CHECK_OK(co_await api->Send(sock, *message));
  }
  CHECK_OK(co_await api->Close(sock));
}

Task<void> ChurnEchoServer(ServerSocketApi* api, uint16_t port,
                           int connections) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(port, 256);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, EchoAndClose(api, *sock));
  }
}

// A long-lived connection pipelining two patterned messages per round;
// every echoed byte is appended to `transcript`, and each echo must match
// the message it answers.
Task<void> ProbeClient(EthernetFabric* eth, Processor* cpu, uint32_t addr,
                       uint16_t port, int rounds,
                       std::vector<uint8_t>* transcript, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(addr, port, cpu);
  CHECK_OK(conn);
  for (int i = 0; i < rounds; ++i) {
    std::vector<uint8_t> a(static_cast<size_t>(1 + (i * 37 + addr) % 700),
                           static_cast<uint8_t>(addr + 2 * i));
    std::vector<uint8_t> b(static_cast<size_t>(1 + (i * 53 + addr) % 3000),
                           static_cast<uint8_t>(addr + 2 * i + 1));
    CHECK_OK(co_await eth->ClientSend(*conn, a, cpu));
    CHECK_OK(co_await eth->ClientSend(*conn, b, cpu));
    for (const std::vector<uint8_t>* sent : {&a, &b}) {
      auto echoed = co_await eth->ClientRecv(*conn);
      CHECK_OK(echoed);
      CHECK(*echoed == *sent);
      transcript->insert(transcript->end(), echoed->begin(), echoed->end());
    }
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

// A short-lived connection: connect, one echo, close.
Task<void> ChurnClient(EthernetFabric* eth, Processor* cpu, uint32_t addr,
                       uint16_t port, Nanos start, WaitGroup* wg) {
  co_await Delay(start);
  auto conn = co_await eth->ClientConnect(addr, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(64, static_cast<uint8_t>(addr));
  CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
  auto echoed = co_await eth->ClientRecv(*conn);
  CHECK_OK(echoed);
  CHECK(*echoed == payload);
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

struct ChurnRun {
  std::vector<std::vector<uint8_t>> transcripts;
  size_t connections_tracked = 0;
};

ChurnRun RunProbesWithChurn(int churn, Nanos plug_window, int shards) {
  constexpr int kProbes = 4;
  constexpr int kRounds = 40;
  constexpr uint16_t kPort = 7100;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.proxy_shards = shards;
  config.net_options.net_plug_window_ns = plug_window;
  Machine machine(std::move(config));
  Spawn(machine.sim(),
        ChurnEchoServer(&machine.net_stub(0), kPort, kProbes + churn));
  machine.sim().RunUntilIdle();

  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  WaitGroup wg(&machine.sim());
  ChurnRun run;
  run.transcripts.resize(kProbes);
  wg.Add(kProbes + churn);
  for (int p = 0; p < kProbes; ++p) {
    Spawn(machine.sim(),
          ProbeClient(&machine.ethernet(), &client, 0x0a000001u + p, kPort,
                      kRounds, &run.transcripts[static_cast<size_t>(p)],
                      &wg));
  }
  // Churn arrivals spread across the probes' lifetime, so the tables grow
  // (and rehash) while probe messages are suspended mid-send.
  for (int c = 0; c < churn; ++c) {
    Spawn(machine.sim(),
          ChurnClient(&machine.ethernet(), &client, 0x0b000000u + c, kPort,
                      Nanoseconds(250) * c, &wg));
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  run.connections_tracked = machine.tcp_proxy().conntrack().size();
  return run;
}

TEST(NetChurnTest, EchoTranscriptsSurviveTableRehashes) {
  const ChurnRun quiet = RunProbesWithChurn(0, Microseconds(40), 2);
  const ChurnRun churned = RunProbesWithChurn(3000, Microseconds(40), 2);
  EXPECT_EQ(quiet.connections_tracked, 4u);
  EXPECT_EQ(churned.connections_tracked, 3004u);
  ASSERT_EQ(quiet.transcripts.size(), churned.transcripts.size());
  for (size_t p = 0; p < quiet.transcripts.size(); ++p) {
    EXPECT_FALSE(quiet.transcripts[p].empty());
    EXPECT_TRUE(quiet.transcripts[p] == churned.transcripts[p])
        << "probe " << p << " transcript differs under churn";
  }
}

// The plug window and the shard count are performance knobs: under churn,
// every probe's echo transcript is byte-identical in every cell.
TEST(NetChurnTest, TranscriptsMatchAcrossPlugWindowAndShards) {
  constexpr int kChurn = 1000;
  const ChurnRun reference = RunProbesWithChurn(kChurn, 0, 1);
  for (Nanos window : {Nanos{0}, Microseconds(40)}) {
    for (int shards : {1, 2, 4}) {
      const ChurnRun run = RunProbesWithChurn(kChurn, window, shards);
      EXPECT_EQ(run.connections_tracked, 4u + kChurn);
      ASSERT_EQ(run.transcripts.size(), reference.transcripts.size());
      for (size_t p = 0; p < run.transcripts.size(); ++p) {
        EXPECT_FALSE(run.transcripts[p].empty());
        EXPECT_TRUE(run.transcripts[p] == reference.transcripts[p])
            << "probe " << p << " window " << window << " shards " << shards;
      }
    }
  }
}

}  // namespace
}  // namespace solros
