// Whole-system integration: file system and network services active
// concurrently on a multi-co-processor machine, plus performance-shape
// regression anchors (cheap versions of the headline figures, asserted so
// refactors cannot silently destroy the reproduced results).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string_view>

#include "src/apps/kv_store.h"
#include "src/base/metrics.h"
#include "src/base/prng.h"
#include "src/core/machine.h"
#include "src/sim/attribution.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng prng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(prng.Next());
  }
  return out;
}

// A data-plane worker mixing file I/O with network echo traffic.
Task<void> MixedWorker(Machine* machine, int phi, int rounds,
                       Status* first_error, WaitGroup* wg) {
  FsStub& fs = machine->fs_stub(phi);
  std::string path = "/mixed" + std::to_string(phi);
  auto ino = co_await fs.Create(path);
  if (!ino.ok()) {
    *first_error = ino.status();
    wg->Done();
    co_return;
  }
  DeviceBuffer buffer(machine->phi_device(phi), KiB(256));
  Prng prng(phi + 100);
  for (auto& b : buffer.Span(0, buffer.size())) {
    b = static_cast<uint8_t>(prng.Next());
  }
  for (int r = 0; r < rounds; ++r) {
    auto written = co_await fs.Write(*ino, r * buffer.size(),
                                     MemRef::Of(buffer));
    if (!written.ok()) {
      *first_error = written.status();
      break;
    }
    DeviceBuffer readback(machine->phi_device(phi), buffer.size());
    auto n = co_await fs.Read(*ino, r * buffer.size(), MemRef::Of(readback));
    if (!n.ok() || *n != buffer.size() ||
        std::memcmp(readback.data(), buffer.data(), buffer.size()) != 0) {
      *first_error = IoError("fs mixed readback mismatch");
      break;
    }
  }
  wg->Done();
}

TEST(FullSystemTest, FsAndKvTrafficCoexistOnFourDataPlanes) {
  const int kPhis = 4;
  MachineConfig config;
  config.num_phis = kPhis;
  config.nvme_capacity = MiB(256);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));

  // KV shards on every data plane (network service)...
  std::vector<std::unique_ptr<KvServer>> shards;
  for (int i = 0; i < kPhis; ++i) {
    shards.push_back(std::make_unique<KvServer>(
        &machine.sim(), &machine.net_stub(i), static_cast<uint32_t>(i)));
    shards.back()->Start(7100, 8);
  }
  machine.sim().RunUntilIdle();

  // ...file workers on every data plane (file-system service)...
  Status first_error;
  WaitGroup wg(&machine.sim());
  for (int i = 0; i < kPhis; ++i) {
    wg.Add(1);
    Spawn(machine.sim(), MixedWorker(&machine, i, 6, &first_error, &wg));
  }

  // ...and an external KV client hammering the shared port concurrently.
  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  KvClient client(&machine.sim(), &machine.ethernet(), &client_cpu,
                  0x0f000000);
  bool kv_ok = true;
  WaitGroup kv_wg(&machine.sim());
  kv_wg.Add(1);
  Spawn(machine.sim(),
        [](KvClient* c, bool* ok, WaitGroup* w) -> Task<void> {
          Status connected = co_await c->Connect(7100, 4);
          if (!connected.ok()) {
            *ok = false;
            w->Done();
            co_return;
          }
          for (int i = 0; i < 50; ++i) {
            std::string key = std::string("k").append(std::to_string(i));
            std::vector<uint8_t> value(64, static_cast<uint8_t>(i));
            if (!(co_await c->Put(key, value)).ok()) {
              *ok = false;
              break;
            }
            auto got = co_await c->Get(key);
            if (!got.ok() || *got != value) {
              *ok = false;
              break;
            }
          }
          co_await c->Close();
          w->Done();
        }(&client, &kv_ok, &kv_wg));

  machine.sim().RunUntilIdle();
  EXPECT_EQ(wg.outstanding(), 0u);
  EXPECT_EQ(kv_wg.outstanding(), 0u);
  CHECK_OK(first_error);
  EXPECT_TRUE(kv_ok);
  // Both services actually ran.
  EXPECT_GT(machine.fs_proxy().stats().requests, 0u);
  EXPECT_GT(machine.tcp_proxy().stats().inbound_messages, 0u);
}

TEST(PerformanceAnchorTest, SolrosLargeReadApproachesSsdCeiling) {
  // Cheap Fig. 11 anchor: one 4 MB P2P read must exceed 2.0 GB/s.
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(128);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/anchor"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(16), 1);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  DeviceBuffer dst(machine.phi_device(0), MiB(4));
  SimTime t0 = machine.sim().now();
  for (int i = 0; i < 4; ++i) {
    auto n = RunSim(machine.sim(),
                    stub.Read(*ino, uint64_t{static_cast<uint64_t>(i)} *
                                        MiB(4),
                              MemRef::Of(dst)));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, MiB(4));
  }
  double bw = RateBps(MiB(16), machine.sim().now() - t0);
  EXPECT_GT(bw, 2.0e9) << "Fig. 11 anchor regressed: " << bw / 1e9
                       << " GB/s";
  EXPECT_LE(bw, 2.4e9 + 1e8);
}

TEST(PerformanceAnchorTest, SolrosWriteApproachesWriteCeiling) {
  // Cheap Fig. 12 anchor: bulk P2P writes above 1.0 GB/s.
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(128);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/anchor"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer src(machine.phi_device(0), MiB(4));
  SimTime t0 = machine.sim().now();
  for (int i = 0; i < 4; ++i) {
    auto n = RunSim(machine.sim(),
                    stub.Write(*ino, uint64_t{static_cast<uint64_t>(i)} *
                                         MiB(4),
                               MemRef::Of(src)));
    ASSERT_TRUE(n.ok());
  }
  double bw = RateBps(MiB(16), machine.sim().now() - t0);
  EXPECT_GT(bw, 1.0e9) << bw / 1e9 << " GB/s";
  EXPECT_LE(bw, 1.2e9 + 1e8);
}

TEST(ObservabilityTest, FsReadRpcProducesExpectedSpanSequence) {
  // One aligned P2P read must produce the canonical span nest:
  //   fs.stub.call > fs.proxy.service > fs.data.p2p > nvme.batch
  Tracer tracer;  // declared before the machine: outlives every frame
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/obs"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer src(machine.phi_device(0), KiB(256));
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));

  // Bind after setup so only the read under test is traced.
  tracer.Bind(&machine.sim());
  uint64_t stub_calls_before =
      MetricRegistry::Default().GetCounter("fs.stub.calls")->value();
  uint64_t proxy_reqs_before =
      MetricRegistry::Default().GetCounter("fs.proxy.requests")->value();
  DeviceBuffer dst(machine.phi_device(0), KiB(256));
  auto n = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, KiB(256));

  EXPECT_EQ(tracer.CountSpans("fs.stub.call"), 1u);
  EXPECT_EQ(tracer.CountSpans("fs.stage.stub_cpu"), 1u);
  EXPECT_EQ(tracer.CountSpans("fs.stage.rpc_wait"), 1u);
  EXPECT_EQ(tracer.CountSpans("fs.proxy.service"), 1u);
  EXPECT_EQ(tracer.CountSpans("fs.stage.proxy_cpu"), 1u);
  EXPECT_EQ(tracer.CountSpans("fs.data.p2p"), 1u);
  EXPECT_GE(tracer.CountSpans("nvme.batch"), 1u);
  EXPECT_GE(tracer.CountSpans("ring.enqueue"), 2u);  // request + response
  EXPECT_GE(tracer.CountSpans("ring.dequeue"), 2u);

  auto find = [&](std::string_view name) -> const SpanRecord* {
    for (const SpanRecord& span : tracer.spans()) {
      if (!span.open && span.name == name) {
        return &span;
      }
    }
    return nullptr;
  };
  const SpanRecord* call = find("fs.stub.call");
  const SpanRecord* service = find("fs.proxy.service");
  const SpanRecord* p2p = find("fs.data.p2p");
  const SpanRecord* batch = find("nvme.batch");
  ASSERT_NE(call, nullptr);
  ASSERT_NE(service, nullptr);
  ASSERT_NE(p2p, nullptr);
  ASSERT_NE(batch, nullptr);
  EXPECT_LE(call->begin, service->begin);
  EXPECT_GE(call->end, service->end);
  EXPECT_LE(service->begin, p2p->begin);
  EXPECT_GE(service->end, p2p->end);
  EXPECT_LE(p2p->begin, batch->begin);
  EXPECT_GE(p2p->end, batch->end);

  // The registry saw exactly this one RPC.
  EXPECT_EQ(
      MetricRegistry::Default().GetCounter("fs.stub.calls")->value() -
          stub_calls_before,
      1u);
  EXPECT_EQ(
      MetricRegistry::Default().GetCounter("fs.proxy.requests")->value() -
          proxy_reqs_before,
      1u);
  EXPECT_GE(MetricRegistry::Default().GetHistogram("fs.stub.call_ns")->max(),
            1u);

  // --- Causal linkage: the nest above is one connected span tree keyed by
  // the trace id allocated at the stub and carried on the wire. ---
  EXPECT_NE(call->trace_id, 0u);
  EXPECT_EQ(call->parent, 0u);  // the root
  EXPECT_EQ(service->trace_id, call->trace_id);
  EXPECT_EQ(service->parent, call->uid);
  EXPECT_EQ(p2p->trace_id, call->trace_id);
  EXPECT_EQ(p2p->parent, service->uid);
  EXPECT_EQ(batch->trace_id, call->trace_id);
  EXPECT_EQ(batch->parent, p2p->uid);
  // Ring queue-wait spans: one per direction, children of the root, each a
  // [SetReady, dequeue] interval inside the root span.
  EXPECT_EQ(tracer.CountSpans("rpc.queue.req"), 1u);
  EXPECT_EQ(tracer.CountSpans("rpc.queue.resp"), 1u);
  for (std::string_view queue_name : {"rpc.queue.req", "rpc.queue.resp"}) {
    const SpanRecord* queue = find(queue_name);
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->trace_id, call->trace_id);
    EXPECT_EQ(queue->parent, call->uid);
    EXPECT_GE(queue->begin, call->begin);
    EXPECT_LE(queue->end, call->end);
  }
  // Per-command device spans are grandchildren through the batch span.
  const SpanRecord* cmd = find("nvme.cmd");
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(cmd->trace_id, call->trace_id);
  EXPECT_EQ(cmd->parent, batch->uid);

  // --- Per-request stage attribution: the one traced RPC yields one exact
  // breakdown whose stages sum to the end-to-end root span. ---
  auto breakdowns = ComputeStageBreakdowns(tracer);
  ASSERT_EQ(breakdowns.size(), 1u);
  const StageBreakdown& b = breakdowns[0];
  EXPECT_EQ(b.trace_id, call->trace_id);
  EXPECT_TRUE(b.exact);
  EXPECT_EQ(b.total, call->end - call->begin);
  EXPECT_EQ(b.stub + b.queue_wait + b.proxy + b.copy_dma + b.device,
            b.total);
  EXPECT_GT(b.device, 0u);      // the read hit the device
  EXPECT_GT(b.queue_wait, 0u);  // both rings were crossed
  EXPECT_EQ(b.copy_dma, 0u);    // P2P path: no host DMA staging
}

// Runs one traced buffered read on a fresh machine and returns the Chrome
// trace export. Everything — span uids, trace ids, flow-event ids — must be
// deterministic, so two runs compare byte-identical.
std::string TracedReadExport() {
  Tracer tracer;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/det"));
  CHECK_OK(ino);
  DeviceBuffer src(machine.phi_device(0), KiB(64));
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));
  tracer.Bind(&machine.sim());
  // Buffered (cache-staged) read: exercises cache + DMA spans on top of
  // the P2P test's stub/ring/proxy/NVMe tree.
  DeviceBuffer dst(machine.phi_device(0), KiB(64));
  CHECK_OK(RunSim(machine.sim(),
                  stub.Read(*ino, KiB(1), MemRef::Of(dst).Sub(0, KiB(4)))));
  std::ostringstream os;
  tracer.ExportChromeTrace(os);
  return os.str();
}

TEST(ObservabilityTest, CausallyLinkedExportIsDeterministic) {
  std::string first = TracedReadExport();
  std::string second = TracedReadExport();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The compared export really contains the causal machinery: span args
  // with trace ids, cache outcome annotations, and flow linkage.
  EXPECT_NE(first.find("\"trace\":"), std::string::npos);
  EXPECT_NE(first.find("\"parent\":"), std::string::npos);
  EXPECT_NE(first.find("cache.read"), std::string::npos);
  EXPECT_NE(first.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(first.find("dma.copy"), std::string::npos);
}

TEST(ObservabilityTest, BufferedReadAnnotatesCacheOutcome) {
  // Both tracers outlive the machine (frames holding ScopedSpans may be
  // destroyed during machine teardown).
  Tracer tracer;
  Tracer hot;
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/cache"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer src(machine.phi_device(0), KiB(64));
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))));
  tracer.Bind(&machine.sim());
  // Unaligned read => buffered path => cache.read span. Cold cache: the
  // demand blocks are misses.
  DeviceBuffer dst(machine.phi_device(0), KiB(8));
  CHECK_OK(RunSim(machine.sim(), stub.Read(*ino, 512, MemRef::Of(dst))));
  ASSERT_EQ(tracer.CountSpans("cache.read"), 1u);
  std::ostringstream os;
  tracer.ExportChromeTrace(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"misses\":"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":"), std::string::npos);

  // Same read again: now cache-hot, zero misses, nonzero hits.
  hot.Bind(&machine.sim());
  CHECK_OK(RunSim(machine.sim(), stub.Read(*ino, 512, MemRef::Of(dst))));
  ASSERT_EQ(hot.CountSpans("cache.read"), 1u);
  std::ostringstream os2;
  hot.ExportChromeTrace(os2);
  EXPECT_NE(os2.str().find("\"misses\":\"0\""), std::string::npos);
}

TEST(FullSystemTest, StubErrorsPropagateCleanly) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  EXPECT_EQ(RunSim(machine.sim(), stub.Open("/missing")).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(RunSim(machine.sim(), stub.Unlink("/missing")).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(RunSim(machine.sim(), stub.Rmdir("/missing")).code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(RunSim(machine.sim(), stub.Create("/a")).ok());
  EXPECT_EQ(RunSim(machine.sim(), stub.Create("/a")).code(),
            ErrorCode::kAlreadyExists);
  // Reading a bad inode number.
  DeviceBuffer buf(machine.phi_device(0), KiB(4));
  EXPECT_FALSE(RunSim(machine.sim(), stub.Read(999, 0, MemRef::Of(buf)))
                   .ok());
}

}  // namespace
}  // namespace solros
