// Allocation budget of the RPC path: once warm, a round trip between an
// RpcClient and an RpcServer over a SimRing pair makes no heap allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/transport/sim_ring.h"
#include "tests/base/alloc_count.h"

namespace solros {
namespace {

struct EchoRequest {
  uint64_t tag = 0;
  uint64_t value = 0;
};
struct EchoResponse {
  uint64_t tag = 0;
  uint64_t value = 0;
};

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu{&sim, host, 48, 1.0, "host"};
  Processor phi_cpu{&sim, phi, 244, 0.125, "phi"};
  std::unique_ptr<SimRing> request_ring;
  std::unique_ptr<SimRing> response_ring;

  // The RPC ring pair, both masters at the phi (§4.3.1).
  Rig() {
    SimRingConfig up;
    up.capacity = KiB(64);
    up.master_device = phi;
    up.producer_device = phi;
    up.consumer_device = host;
    up.producer_cpu = &phi_cpu;
    up.consumer_cpu = &host_cpu;
    request_ring = std::make_unique<SimRing>(&sim, &fabric, params, up);
    SimRingConfig down = up;
    down.producer_device = host;
    down.consumer_device = phi;
    down.producer_cpu = &host_cpu;
    down.consumer_cpu = &phi_cpu;
    response_ring = std::make_unique<SimRing>(&sim, &fabric, params, down);
  }
};

Task<EchoResponse> Echo(Processor* cpu, EchoRequest request) {
  co_await cpu->Compute(Microseconds(1));
  EchoResponse response;
  response.value = request.value;
  co_return response;
}

Task<void> CallLoop(RpcClient<EchoRequest, EchoResponse>* client, int calls,
                    uint64_t* completed) {
  for (int i = 0; i < calls; ++i) {
    EchoRequest request;
    request.value = static_cast<uint64_t>(i);
    auto response = co_await client->Call(request);
    CHECK_OK(response);
    CHECK_EQ(response->value, static_cast<uint64_t>(i));
    ++*completed;
  }
}

TEST(RpcAllocationTest, WarmRoundTripsMakeNoHeapAllocation) {
  Rig rig;
  RpcServer<EchoRequest, EchoResponse> server(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get(),
      [&rig](EchoRequest r) { return Echo(&rig.host_cpu, r); });
  server.Start();
  RpcClient<EchoRequest, EchoResponse> client(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get());
  client.Start();

  // Four callers keep several calls, and so several waiters, in flight.
  constexpr int kCallers = 4;
  constexpr int kCalls = 64;
  uint64_t completed = 0;
  uint64_t allocations = 0;
  for (int phase = 0; phase < 2; ++phase) {
    // The first phase warms every pool and buffer.
    StartCountingAllocations();
    for (int c = 0; c < kCallers; ++c) {
      Spawn(rig.sim, CallLoop(&client, kCalls, &completed));
    }
    rig.sim.RunUntilIdle();
    allocations = StopCountingAllocations();
  }
  EXPECT_EQ(completed, 2u * kCallers * kCalls);
  EXPECT_EQ(allocations, 0u);

  client.Stop();
  server.Stop();
  rig.sim.RunUntilIdle();
}

}  // namespace
}  // namespace solros
