// Per-connection state at scale: the plug's stage table holds only sockets
// with unsealed data, and connection churn (which grows and rehashes the
// per-connection tables while other connections are mid-message) leaves
// every echo transcript byte-identical to a churn-free run.
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

// Stages one 16-byte payload per socket, in the given socket order; every
// SendData completes without suspending (far below staging_capacity).
Task<void> StageOnePerSocket(NetPlug* plug, std::vector<int64_t> socks) {
  for (int64_t sock : socks) {
    std::vector<uint8_t> payload(16, static_cast<uint8_t>(sock));
    NetEvent header;
    header.kind = NetEventKind::kData;
    header.sock = sock;
    header.length = static_cast<uint32_t>(payload.size());
    CHECK_OK(co_await plug->SendData(header, payload));
  }
}

// Drains `records` ring records, appending each coalesced event's socket.
Task<void> DrainSockets(SimRing* ring, int records,
                        std::vector<int64_t>* socks) {
  for (int i = 0; i < records; ++i) {
    auto record = co_await ring->Receive();
    CHECK_OK(record);
    NetEvent event = DecodePod<NetEvent>(*record);
    CHECK(event.kind == NetEventKind::kData);
    CHECK_EQ(event.segments, 1);
    std::span<const uint8_t> body(record->data() + sizeof(NetEvent),
                                  record->size() - sizeof(NetEvent));
    for (const NetSegmentView& m : SplitSegments(event, body)) {
      CHECK_EQ(m.payload.size(), 16u);
      CHECK_EQ(m.payload[0], static_cast<uint8_t>(event.sock));
    }
    socks->push_back(event.sock);
  }
}

// Guards the plug tick's cost: a stage is erased once sealed, so a tick
// walks only the sockets that hold unsealed data, never every socket the
// plug has seen.
TEST(NetPlugTest, StageTableHoldsOnlyUnsealedSockets) {
  PlugRig rig;
  SimRing ring(&rig.sim, &rig.fabric, rig.params, rig.InboundConfig());
  NetPathOptions options;
  options.coalescing = true;
  NetPlug plug(&rig.sim, &ring, options, "net.plugtest");

  constexpr int kSockets = 4096;
  std::vector<int64_t> ascending;
  for (int64_t sock = 1; sock <= kSockets; ++sock) {
    ascending.push_back(sock);
  }
  const std::vector<int64_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<int64_t> delivered;
  Spawn(rig.sim, DrainSockets(&ring, kSockets + 3, &delivered));
  Spawn(rig.sim, StageOnePerSocket(&plug, descending));
  rig.sim.RunUntil(rig.sim.now());
  EXPECT_EQ(plug.staged_sockets(), static_cast<size_t>(kSockets));

  rig.sim.RunUntil(rig.sim.now() + options.net_plug_window_ns);
  EXPECT_EQ(plug.staged_sockets(), 0u);
  rig.sim.RunUntilIdle();
  EXPECT_EQ(delivered, ascending) << "seals must run in socket order";

  // A second burst touches three of those sockets: exactly three stages.
  Spawn(rig.sim, StageOnePerSocket(&plug, {4000, 7, 4096}));
  rig.sim.RunUntil(rig.sim.now());
  EXPECT_EQ(plug.staged_sockets(), 3u);
  rig.sim.RunUntilIdle();
  EXPECT_EQ(plug.staged_sockets(), 0u);
  ascending.insert(ascending.end(), {7, 4000, 4096});
  EXPECT_EQ(delivered, ascending);
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

ChurnRun RunProbesWithChurn(int churn) {
  constexpr int kProbes = 4;
  constexpr int kRounds = 40;
  constexpr uint16_t kPort = 7100;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.proxy_shards = 2;
  config.net_options.coalescing = true;
  config.net_options.vectored_push = true;
  config.net_options.drr_dispatch = true;
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
  const ChurnRun quiet = RunProbesWithChurn(0);
  const ChurnRun churned = RunProbesWithChurn(3000);
  EXPECT_EQ(quiet.connections_tracked, 4u);
  EXPECT_EQ(churned.connections_tracked, 3004u);
  ASSERT_EQ(quiet.transcripts.size(), churned.transcripts.size());
  for (size_t p = 0; p < quiet.transcripts.size(); ++p) {
    EXPECT_FALSE(quiet.transcripts[p].empty());
    EXPECT_TRUE(quiet.transcripts[p] == churned.transcripts[p])
        << "probe " << p << " transcript differs under churn";
  }
}

}  // namespace
}  // namespace solros
