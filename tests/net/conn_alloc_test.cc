// Allocation budget of a net connection: an empty Channel owns no heap
// memory, and accepting a connection on the sharded proxy costs a handful
// of heap allocations, not a hash node per table and a deque per queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/machine.h"
#include "src/sim/sync.h"
#include "tests/base/alloc_count.h"

namespace solros {
namespace {

constexpr uint16_t kPort = 7000;

TEST(ConnAllocationTest, EmptyChannelMakesNoHeapAllocation) {
  Simulator sim;
  StartCountingAllocations();
  {
    Channel<std::vector<uint8_t>> channel(&sim, 0);
    EXPECT_FALSE(channel.TryReceive().has_value());
    channel.Close();
  }
  EXPECT_EQ(StopCountingAllocations(), 0u);
}

Task<void> AcceptForever(ServerSocketApi* api) {
  auto listener = co_await api->Listen(kPort, 256);
  CHECK_OK(listener);
  while (true) {
    CHECK_OK(co_await api->Accept(*listener));
  }
}

Task<void> Connect(EthernetFabric* ethernet, Processor* cpu, uint32_t addr) {
  CHECK_OK(co_await ethernet->ClientConnect(addr, kPort, cpu));
}

// Connects `count` clients at once, as net_storm's clients do.
void ConnectAll(Machine& machine, Processor* cpu, uint32_t count) {
  for (uint32_t c = 0; c < count; ++c) {
    Spawn(machine.sim(), Connect(&machine.ethernet(), cpu, c));
  }
  machine.sim().RunUntilIdle();
}

// net_storm's machine: 4 phis behind a 4-shard proxy, all listening on one
// shared port. One warm connection, then 2,048 counted ones.
TEST(ConnAllocationTest, AcceptedConnectionCostsFewHeapAllocations) {
  MachineConfig config;
  config.num_phis = 4;
  config.proxy_shards = 4;
  config.nvme_capacity = MiB(64);
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  for (int p = 0; p < 4; ++p) {
    Spawn(sim, AcceptForever(&machine.net_stub(p)));
  }
  sim.RunUntilIdle();
  Processor client(&sim, machine.host_device(), 32, 1.0, "client");
  ConnectAll(machine, &client, 1);

  constexpr uint32_t kConns = 2048;
  StartCountingAllocations();
  ConnectAll(machine, &client, kConns);
  const uint64_t allocations = StopCountingAllocations();
  EXPECT_EQ(machine.tcp_proxy().conntrack().size(), 1u + kConns);
  // With a hash node per table and a deque per queue this read 34,864
  // (17.0 per connection). The 3.0 per connection left are the coroutine
  // frames of the connects in flight at once, which the frame pool keeps:
  // 6,244 in the Release and RelWithDebInfo builds, 6,150 in Debug ASan.
  EXPECT_LE(allocations, 6244u);
}

}  // namespace
}  // namespace solros
