// Network substrate tests: ethernet fabric semantics, the direct server
// stacks (host and bridged Phi-Linux), and the expected latency ordering
// between configurations.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/histogram.h"
#include "src/core/machine.h"
#include "src/net/direct_server.h"
#include "src/net/ethernet.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu{&sim, host, 96, 1.0, "host"};
  Processor phi_cpu{&sim, phi, 244, 0.125, "phi"};
  Processor client_cpu{&sim, host, 32, 1.0, "client"};
  EthernetFabric ethernet{&sim, params};

  DirectServer::Config HostConfig() {
    DirectServer::Config config;
    config.stack_cpu = &host_cpu;
    config.stack_device = host;
    return config;
  }
  DirectServer::Config PhiLinuxConfig() {
    DirectServer::Config config;
    config.stack_cpu = &phi_cpu;
    config.stack_device = phi;
    config.bridge_cpu = &host_cpu;
    config.bridge_device = host;
    return config;
  }
};

Task<void> OneShotEcho(ServerSocketApi* api, uint16_t port) {
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

TEST(EthernetTest, ConnectToUnregisteredPortIsRefused) {
  Rig rig;
  auto conn = RunSim(rig.sim,
                     rig.ethernet.ClientConnect(1, 1234, &rig.client_cpu));
  EXPECT_EQ(conn.code(), ErrorCode::kConnectionReset);
}

TEST(DirectServerTest, HostEchoRoundtrip) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  Spawn(rig.sim, OneShotEcho(&server, 5000));
  rig.sim.RunUntilIdle();

  auto conn = RunSim(rig.sim,
                     rig.ethernet.ClientConnect(1, 5000, &rig.client_cpu));
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> message = {1, 2, 3, 4};
  CHECK_OK(RunSim(rig.sim, rig.ethernet.ClientSend(*conn, message,
                                                   &rig.client_cpu)));
  auto echoed = RunSim(rig.sim, rig.ethernet.ClientRecv(*conn));
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, message);
  RunSim(rig.sim, rig.ethernet.ClientClose(*conn, &rig.client_cpu));
}

TEST(DirectServerTest, DuplicateListenRejected) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  auto first = RunSim(rig.sim, server.Listen(6000, 4));
  ASSERT_TRUE(first.ok());
  auto second = RunSim(rig.sim, server.Listen(6000, 4));
  EXPECT_EQ(second.code(), ErrorCode::kAlreadyExists);
}

TEST(DirectServerTest, BacklogOverflowResetsConnection) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  auto listener = RunSim(rig.sim, server.Listen(6100, 2));
  ASSERT_TRUE(listener.ok());
  // Nobody accepts; the third connection must be refused.
  auto c1 = RunSim(rig.sim,
                   rig.ethernet.ClientConnect(1, 6100, &rig.client_cpu));
  auto c2 = RunSim(rig.sim,
                   rig.ethernet.ClientConnect(2, 6100, &rig.client_cpu));
  auto c3 = RunSim(rig.sim,
                   rig.ethernet.ClientConnect(3, 6100, &rig.client_cpu));
  EXPECT_TRUE(c1.ok());
  EXPECT_TRUE(c2.ok());
  EXPECT_EQ(c3.code(), ErrorCode::kConnectionReset);
}

TEST(DirectServerTest, ServerCloseResetsClientRecv) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  auto listener = RunSim(rig.sim, server.Listen(6200, 4));
  ASSERT_TRUE(listener.ok());
  auto conn = RunSim(rig.sim,
                     rig.ethernet.ClientConnect(1, 6200, &rig.client_cpu));
  ASSERT_TRUE(conn.ok());
  auto sock = RunSim(rig.sim, server.Accept(*listener));
  ASSERT_TRUE(sock.ok());
  CHECK_OK(RunSim(rig.sim, server.Close(*sock)));
  auto recv = RunSim(rig.sim, rig.ethernet.ClientRecv(*conn));
  EXPECT_EQ(recv.code(), ErrorCode::kConnectionReset);
}

Task<void> MeasurePing(EthernetFabric* eth, Processor* cpu, uint16_t port,
                       int pings, Simulator* sim, Histogram* out,
                       WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(7, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(64, 1);
  for (int i = 0; i < pings; ++i) {
    SimTime t0 = sim->now();
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
    auto echoed = co_await eth->ClientRecv(*conn);
    CHECK_OK(echoed);
    out->Record(sim->now() - t0);
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

TEST(LatencyOrderingTest, PhiLinuxIsMuchSlowerThanHostStack) {
  // The Fig. 1(b) mechanism at the substrate level: the same echo on the
  // bridged Phi stack vs the host stack.
  auto measure = [](bool phi_linux) -> uint64_t {
    Rig rig;
    DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                        phi_linux ? rig.PhiLinuxConfig() : rig.HostConfig());
    Spawn(rig.sim, OneShotEcho(&server, 5000));
    rig.sim.RunUntilIdle();
    Histogram latencies;
    WaitGroup wg(&rig.sim);
    wg.Add(1);
    Spawn(rig.sim, MeasurePing(&rig.ethernet, &rig.client_cpu, 5000, 100,
                               &rig.sim, &latencies, &wg));
    rig.sim.RunUntilIdle();
    return latencies.ValueAtQuantile(0.5);
  };
  uint64_t host_p50 = measure(false);
  uint64_t phi_p50 = measure(true);
  EXPECT_GT(static_cast<double>(phi_p50) / host_p50, 2.5)
      << "host=" << host_p50 << " phi=" << phi_p50;
}

TEST(ForwardingPolicyTest, LiveLeastLoadedPicksShallowestQueue) {
  LiveLeastLoadedPolicy policy;
  // The live depth signal outranks connection counts: target 1 has the
  // most connections but nothing queued right now.
  std::vector<BalanceTarget> targets(3);
  targets[0] = {.dataplane = 0, .active_conns = 1, .queue_depth = 7};
  targets[1] = {.dataplane = 1, .active_conns = 9, .queue_depth = 0};
  targets[2] = {.dataplane = 2, .active_conns = 2, .queue_depth = 3};
  EXPECT_EQ(policy.Pick(0x0a000001, 80, targets), 1u);
  // Depth ties fall back to the connection count.
  targets[1].queue_depth = 3;
  targets[2].active_conns = 0;
  EXPECT_EQ(policy.Pick(0x0a000001, 80, targets), 2u);
  EXPECT_EQ(policy.name(), "live-least-loaded");
}

// Closes `sock` as soon as its client sends anything or closes it.
Task<void> CloseOnFirstRecv(ServerSocketApi* api, int64_t sock) {
  auto message = co_await api->Recv(sock);  // data, or the client's close
  CHECK_OK(co_await api->Close(sock));
}

Task<void> AcceptAndCloseOnFirstRecv(ServerSocketApi* api, uint16_t port,
                                     int connections) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(port, 8);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, CloseOnFirstRecv(api, *sock));
  }
}

// Two phis behind a least-loaded shared listener on each of `ports`, and
// a client whose connections report the phi they were forwarded to.
struct LeastLoadedRig {
  explicit LeastLoadedRig(std::initializer_list<uint16_t> ports)
      : machine([] {
          MachineConfig config;
          config.num_phis = 2;
          config.nvme_capacity = MiB(64);
          config.policy = std::make_unique<LeastLoadedPolicy>();
          return config;
        }()) {
    for (int phi = 0; phi < 2; ++phi) {
      for (uint16_t port : ports) {
        Spawn(machine.sim(),
              AcceptAndCloseOnFirstRecv(&machine.net_stub(phi), port, 4));
      }
    }
    machine.sim().RunUntilIdle();
  }
  uint64_t Connect(uint16_t port) {
    auto conn = RunSim(machine.sim(),
                       machine.ethernet().ClientConnect(1, port, &client));
    CHECK_OK(conn);
    machine.sim().RunUntilIdle();
    return *conn;
  }
  uint32_t PhiOf(uint64_t conn) {
    const ConnEntry* entry = machine.tcp_proxy().conntrack().Find(conn);
    CHECK(entry != nullptr);
    return entry->dataplane;
  }

  Machine machine;
  Processor client{&machine.sim(), machine.host_device(), 32, 1.0, "cl"};
};

TEST(ForwardingPolicyTest, LeastLoadedForgetsClientClosedConnections) {
  LeastLoadedRig rig({5000});
  uint64_t a = rig.Connect(5000);
  ASSERT_EQ(rig.PhiOf(a), 0u);
  RunSim(rig.machine.sim(), rig.machine.ethernet().ClientClose(a, &rig.client));
  rig.machine.sim().RunUntilIdle();  // the server closes A in turn
  // Phi 0's only connection is gone, so B takes it and C the other phi.
  uint64_t b = rig.Connect(5000);
  uint64_t c = rig.Connect(5000);
  EXPECT_EQ(rig.PhiOf(b), 0u);
  EXPECT_EQ(rig.PhiOf(c), 1u);
}

TEST(ForwardingPolicyTest, LeastLoadedServerCloseLeavesOtherPortsCounts) {
  LeastLoadedRig rig({5000, 6000});
  uint64_t x = rig.Connect(5000);
  uint64_t y = rig.Connect(6000);
  ASSERT_EQ(rig.PhiOf(x), 0u);
  ASSERT_EQ(rig.PhiOf(y), 0u);
  // The server closes X; Y still holds phi 0 on port 6000.
  std::vector<uint8_t> byte = {1};
  CHECK_OK(RunSim(rig.machine.sim(),
                  rig.machine.ethernet().ClientSend(x, byte, &rig.client)));
  rig.machine.sim().RunUntilIdle();
  uint64_t z = rig.Connect(6000);
  EXPECT_EQ(rig.PhiOf(z), 1u);
}

template <typename T>
Task<void> StoreResult(Task<T> task, std::optional<T>* out) {
  *out = co_await std::move(task);
}

Task<void> ListenThenClose(ServerSocketApi* api, uint16_t port) {
  auto listener = co_await api->Listen(port, 8);
  CHECK_OK(listener);
  CHECK_OK(co_await api->Close(*listener));
}

MachineConfig NetMachineConfig(int phis) {
  MachineConfig config;
  config.num_phis = phis;
  config.nvme_capacity = MiB(64);
  return config;
}

// Closing a listener unregisters its port: a later connect is refused.
void ExpectClosedListenerRefusesConnects(Simulator& sim,
                                         EthernetFabric& ethernet,
                                         Processor* client,
                                         ServerSocketApi* api) {
  auto listener = RunSim(sim, api->Listen(5000, 8));
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(RunSim(sim, api->Close(*listener)).ok());
  auto conn = RunSim(sim, ethernet.ClientConnect(1, 5000, client));
  EXPECT_EQ(conn.code(), ErrorCode::kConnectionReset);
}

TEST(TcpProxyListenerTest, ClosedListenerRefusesConnects) {
  Machine machine(NetMachineConfig(1));
  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  ExpectClosedListenerRefusesConnects(machine.sim(), machine.ethernet(),
                                      &client, &machine.net_stub(0));
}

TEST(DirectServerTest, HostClosedListenerRefusesConnects) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  ExpectClosedListenerRefusesConnects(rig.sim, rig.ethernet, &rig.client_cpu,
                                      &server);
}

TEST(DirectServerTest, PhiLinuxClosedListenerRefusesConnects) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.PhiLinuxConfig());
  ExpectClosedListenerRefusesConnects(rig.sim, rig.ethernet, &rig.client_cpu,
                                      &server);
}

TEST(TcpProxyListenerTest, ClosedListenerLeavesItsSharedPort) {
  Machine machine(NetMachineConfig(2));
  RunSim(machine.sim(), ListenThenClose(&machine.net_stub(0), 5000));
  Spawn(machine.sim(),
        AcceptAndCloseOnFirstRecv(&machine.net_stub(1), 5000, 4));
  machine.sim().RunUntilIdle();
  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  for (int c = 0; c < 4; ++c) {
    auto conn = RunSim(machine.sim(),
                       machine.ethernet().ClientConnect(1, 5000, &client));
    ASSERT_TRUE(conn.ok());
    const ConnEntry* entry = machine.tcp_proxy().conntrack().Find(*conn);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->dataplane, 1u) << "connection " << c;
  }
}

// Runs `task` until the simulation idles: its result, or nullopt when it
// parked for good.
template <typename T>
std::optional<T> RunUnlessParked(Simulator& sim, Task<T> task) {
  std::optional<T> out;
  Spawn(sim, StoreResult(std::move(task), &out));
  sim.RunUntilIdle();
  return out;
}

Task<Status> CloseAfter(Nanos delay, NetStub* stub, int64_t sock) {
  co_await Delay(delay);
  co_return co_await stub->Close(sock);
}

// The stub closes its listener `delay` after a client starts to connect.
// 1 us: the kAccepted reaches the stub after the close. 20 us: the
// connection waits in the accept queue. Either way the stub resets it
// instead of leaving it parked.
TEST(TcpProxyListenerTest, ClosingListenerResetsConnectionsNotAccepted) {
  for (Nanos delay : {Microseconds(1), Microseconds(20)}) {
    SCOPED_TRACE(delay);
    Machine machine(NetMachineConfig(1));
    NetStub& stub = machine.net_stub(0);
    auto listener = RunSim(machine.sim(), stub.Listen(5000, 8));
    ASSERT_TRUE(listener.ok());
    Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
    std::optional<Result<uint64_t>> conn;
    Spawn(machine.sim(),
          StoreResult(machine.ethernet().ClientConnect(1, 5000, &client),
                      &conn));
    Spawn(machine.sim(), CloseAfter(delay, &stub, *listener));
    machine.sim().RunUntilIdle();
    ASSERT_TRUE(conn.has_value());
    ASSERT_TRUE(conn->ok());
    auto recv = RunUnlessParked(machine.sim(),
                                machine.ethernet().ClientRecv(**conn));
    ASSERT_TRUE(recv.has_value()) << "the connection was left parked";
    EXPECT_EQ(recv->code(), ErrorCode::kConnectionReset);
    const ConnEntry* entry = machine.tcp_proxy().conntrack().Find(**conn);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->open);
  }
}

// Closing a DirectServer listener resets the connection waiting in its
// accept queue and wakes an Accept parked on it with kConnectionReset.
TEST(DirectServerTest, ClosingListenerResetsQueuedAndWakesParkedAccept) {
  Rig rig;
  DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                      rig.HostConfig());
  auto queued = RunSim(rig.sim, server.Listen(5000, 8));
  ASSERT_TRUE(queued.ok());
  auto conn =
      RunSim(rig.sim, rig.ethernet.ClientConnect(1, 5000, &rig.client_cpu));
  ASSERT_TRUE(conn.ok());
  auto parked = RunSim(rig.sim, server.Listen(5001, 8));
  ASSERT_TRUE(parked.ok());
  std::optional<Result<int64_t>> accept;
  Spawn(rig.sim, StoreResult(server.Accept(*parked), &accept));
  rig.sim.RunUntilIdle();
  ASSERT_FALSE(accept.has_value());

  ASSERT_TRUE(RunSim(rig.sim, server.Close(*queued)).ok());
  ASSERT_TRUE(RunSim(rig.sim, server.Close(*parked)).ok());
  ASSERT_TRUE(accept.has_value());
  EXPECT_EQ(accept->code(), ErrorCode::kConnectionReset);
  auto recv = RunUnlessParked(rig.sim, rig.ethernet.ClientRecv(*conn));
  ASSERT_TRUE(recv.has_value()) << "the connection was left parked";
  EXPECT_EQ(recv->code(), ErrorCode::kConnectionReset);
  // Both listeners are gone for good; their ports are free again.
  EXPECT_EQ(RunSim(rig.sim, server.Close(*queued)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(RunSim(rig.sim, server.Listen(5000, 8)).ok());
}

// A handle `api` never issued, or one it has closed, fails at once with
// kInvalidArgument instead of parking the caller for good. The close races
// a client message, which must not bring the socket back.
void ExpectBadHandlesRejected(Simulator& sim, EthernetFabric& ethernet,
                              Processor* client, ServerSocketApi* api) {
  auto listener = RunSim(sim, api->Listen(5000, 8));
  ASSERT_TRUE(listener.ok());
  for (int64_t bad : {int64_t{999}, int64_t{-1}}) {
    auto recv = RunUnlessParked(sim, api->Recv(bad));
    ASSERT_TRUE(recv.has_value()) << "Recv(" << bad << ") parked";
    EXPECT_EQ(recv->code(), ErrorCode::kInvalidArgument);
    auto accept = RunUnlessParked(sim, api->Accept(bad));
    ASSERT_TRUE(accept.has_value()) << "Accept(" << bad << ") parked";
    EXPECT_EQ(accept->code(), ErrorCode::kInvalidArgument);
  }
  auto conn = RunSim(sim, ethernet.ClientConnect(1, 5000, client));
  ASSERT_TRUE(conn.ok());
  auto sock = RunSim(sim, api->Accept(*listener));
  ASSERT_TRUE(sock.ok());
  std::vector<uint8_t> byte = {1};
  Spawn(sim, ethernet.ClientSend(*conn, byte, client));
  Spawn(sim, api->Close(*sock));
  sim.RunUntilIdle();
  auto recv = RunUnlessParked(sim, api->Recv(*sock));
  ASSERT_TRUE(recv.has_value()) << "Recv on a closed socket parked";
  EXPECT_EQ(recv->code(), ErrorCode::kInvalidArgument);
}

TEST(ServerSocketApiTest, BadHandlesAreRejectedOnEveryStack) {
  {
    SCOPED_TRACE("DirectServer");
    Rig rig;
    DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                        rig.HostConfig());
    ExpectBadHandlesRejected(rig.sim, rig.ethernet, &rig.client_cpu,
                             &server);
  }
  {
    SCOPED_TRACE("NetStub");
    Machine machine(NetMachineConfig(1));
    Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
    ExpectBadHandlesRejected(machine.sim(), machine.ethernet(), &client,
                             &machine.net_stub(0));
    // The stub saw the kAccepted and, after the close, the client's
    // message, which it dropped.
    EXPECT_EQ(machine.net_stub(0).events_dispatched(), 2u);
    EXPECT_EQ(machine.net_stub(0).messages_delivered(), 0u);
  }
}

Task<void> RecvInto(ServerSocketApi* api, int64_t sock,
                    std::optional<Result<std::vector<uint8_t>>>* out) {
  *out = co_await api->Recv(sock);
}

// A task parked in Recv while another task closes the socket wakes with
// kConnectionReset; the socket's queue outlives the close that wakes it.
void ExpectCloseWakesParkedRecv(Simulator& sim, EthernetFabric& ethernet,
                                Processor* client, ServerSocketApi* api) {
  auto listener = RunSim(sim, api->Listen(5000, 8));
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(RunSim(sim, ethernet.ClientConnect(1, 5000, client)).ok());
  auto sock = RunSim(sim, api->Accept(*listener));
  ASSERT_TRUE(sock.ok());
  std::optional<Result<std::vector<uint8_t>>> recv;
  Spawn(sim, RecvInto(api, *sock, &recv));
  sim.RunUntilIdle();
  ASSERT_FALSE(recv.has_value());
  ASSERT_TRUE(RunSim(sim, api->Close(*sock)).ok());
  ASSERT_TRUE(recv.has_value());
  EXPECT_EQ(recv->code(), ErrorCode::kConnectionReset);
}

TEST(ServerSocketApiTest, CloseWakesARecvParkedOnTheSocket) {
  {
    SCOPED_TRACE("DirectServer");
    Rig rig;
    DirectServer server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                        rig.HostConfig());
    ExpectCloseWakesParkedRecv(rig.sim, rig.ethernet, &rig.client_cpu,
                               &server);
  }
  {
    SCOPED_TRACE("NetStub");
    Machine machine(NetMachineConfig(1));
    Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
    ExpectCloseWakesParkedRecv(machine.sim(), machine.ethernet(), &client,
                               &machine.net_stub(0));
  }
}

TEST(MachineNetTest, EchoWorksWithShardedTcpProxy) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.proxy_shards = 2;
  Machine machine(std::move(config));
  EXPECT_EQ(machine.tcp_proxy().shard_count(), 2);
  Spawn(machine.sim(), OneShotEcho(&machine.net_stub(0), 5000));
  machine.sim().RunUntilIdle();
  Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
  Histogram latencies;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), MeasurePing(&machine.ethernet(), &client, 5000, 50,
                                   &machine.sim(), &latencies, &wg));
  machine.sim().RunUntilIdle();
  EXPECT_EQ(wg.outstanding(), 0u);
  EXPECT_GT(latencies.count(), 0u);
}

TEST(MachineNetTest, SolrosLatencyTracksHostNotPhiLinux) {
  // End-to-end ordering: Solros ~ Host << Phi-Linux (Fig. 1(b)).
  auto solros_p50 = [] {
    MachineConfig config;
    config.num_phis = 1;
    config.nvme_capacity = MiB(64);
    Machine machine(std::move(config));
    Spawn(machine.sim(), OneShotEcho(&machine.net_stub(0), 5000));
    machine.sim().RunUntilIdle();
    Processor client(&machine.sim(), machine.host_device(), 32, 1.0, "cl");
    Histogram latencies;
    WaitGroup wg(&machine.sim());
    wg.Add(1);
    Spawn(machine.sim(), MeasurePing(&machine.ethernet(), &client, 5000,
                                     100, &machine.sim(), &latencies, &wg));
    machine.sim().RunUntilIdle();
    return latencies.ValueAtQuantile(0.5);
  }();

  Rig rig;
  DirectServer phi_server(&rig.sim, &rig.fabric, rig.params, &rig.ethernet,
                          rig.PhiLinuxConfig());
  Spawn(rig.sim, OneShotEcho(&phi_server, 5000));
  rig.sim.RunUntilIdle();
  Histogram phi_lat;
  WaitGroup wg(&rig.sim);
  wg.Add(1);
  Spawn(rig.sim, MeasurePing(&rig.ethernet, &rig.client_cpu, 5000, 100,
                             &rig.sim, &phi_lat, &wg));
  rig.sim.RunUntilIdle();
  uint64_t phi_p50 = phi_lat.ValueAtQuantile(0.5);

  EXPECT_LT(static_cast<double>(solros_p50) * 2.0, phi_p50)
      << "solros=" << solros_p50 << " phi-linux=" << phi_p50;
}

}  // namespace
}  // namespace solros
