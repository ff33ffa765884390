#include "src/rpc/rpc.h"

#include <gtest/gtest.h>

#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/base/units.h"
#include "src/fs/fs_stub.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/rpc/messages.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/transport/sim_ring.h"

namespace solros {
namespace {

// Toy protocol for exercising the RPC plumbing.
struct PingRequest {
  uint64_t tag = 0;
  uint64_t value = 0;
  Nanos think_time = 0;
};
struct PingResponse {
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

  Rig() {
    SimRingConfig up;
    up.capacity = KiB(256);
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

Task<PingResponse> EchoHandler(Processor* cpu, PingRequest request) {
  if (request.think_time != 0) {
    co_await Delay(request.think_time);
  }
  co_await cpu->Compute(Microseconds(1));
  PingResponse response;
  response.value = request.value * 2;
  co_return response;
}

TEST(RpcTest, SingleCallRoundtrip) {
  Rig rig;
  RpcServer<PingRequest, PingResponse> server(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get(),
      [&rig](PingRequest r) { return EchoHandler(&rig.host_cpu, r); });
  server.Start();
  RpcClient<PingRequest, PingResponse> client(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get());
  client.Start();

  PingRequest request;
  request.value = 21;
  auto response = RunSim(rig.sim, client.Call(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->value, 42u);
  EXPECT_GT(rig.sim.now(), 0u);
  EXPECT_EQ(server.requests_served(), 1u);
}

Task<void> CallMany(RpcClient<PingRequest, PingResponse>* client,
                    uint64_t base, int n, WaitGroup* wg, bool* ok) {
  for (int i = 0; i < n; ++i) {
    PingRequest request;
    request.value = base + i;
    auto response = co_await client->Call(request);
    if (!response.ok() || response->value != 2 * (base + i)) {
      *ok = false;
    }
  }
  wg->Done();
}

TEST(RpcTest, ManyConcurrentCallersCorrelateByTag) {
  Rig rig;
  RpcServer<PingRequest, PingResponse> server(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get(),
      [&rig](PingRequest r) { return EchoHandler(&rig.host_cpu, r); });
  server.Start();
  RpcClient<PingRequest, PingResponse> client(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get());
  client.Start();

  WaitGroup wg(&rig.sim);
  bool ok = true;
  for (int t = 0; t < 16; ++t) {
    wg.Add(1);
    Spawn(rig.sim, CallMany(&client, 1000 * (t + 1), 25, &wg, &ok));
  }
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
  EXPECT_EQ(server.requests_served(), 16u * 25u);
}

TEST(RpcTest, OutOfOrderCompletionsRouteCorrectly) {
  Rig rig;
  // Handler delays are inversely ordered so responses complete out of
  // submission order.
  RpcServer<PingRequest, PingResponse> server(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get(),
      [&rig](PingRequest r) { return EchoHandler(&rig.host_cpu, r); });
  server.Start();
  RpcClient<PingRequest, PingResponse> client(
      &rig.sim, rig.request_ring.get(), rig.response_ring.get());
  client.Start();

  bool ok = true;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < 8; ++i) {
    PingRequest request;
    request.value = i;
    request.think_time = Microseconds(100 * (8 - i));  // later = faster
    wg.Add(1);
    Spawn(rig.sim,
          [](RpcClient<PingRequest, PingResponse>* c, PingRequest req,
             WaitGroup* w, bool* flag) -> Task<void> {
            auto response = co_await c->Call(req);
            if (!response.ok() || response->value != req.value * 2) {
              *flag = false;
            }
            w->Done();
          }(&client, request, &wg, &ok));
  }
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
}

// A proxy that fails every request with a server-reported I/O error.
Task<FsResponse> FailingFsHandler(FsRequest) {
  FsResponse response;
  response.error = ErrorCode::kIoError;
  co_return response;
}

// With nothing armed the stub makes one attempt: a server-reported
// transient error reaches the caller after one served request, with no
// retry and no backoff.
TEST(FsStubRetryTest, UnarmedServerIoErrorIsReturnedAfterOneRequest) {
  ASSERT_FALSE(Faults().any_armed());
  Rig rig;
  RpcServer<FsRequest, FsResponse> server(&rig.sim, rig.request_ring.get(),
                                          rig.response_ring.get(),
                                          FailingFsHandler);
  server.Start();
  FsStub stub(&rig.sim, rig.params, &rig.phi_cpu,
              {{rig.request_ring.get(), rig.response_ring.get()}},
              /*client_id=*/0);
  Counter* retries = MetricRegistry::Default().GetCounter("fs.stub.retries");
  const uint64_t retries_before = retries->value();

  auto stat = RunSim(rig.sim, stub.Stat("/file"));
  EXPECT_EQ(stat.code(), ErrorCode::kIoError);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(retries->value(), retries_before);
}

}  // namespace
}  // namespace solros
