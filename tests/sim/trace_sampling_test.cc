// Tail-based sampling tests: the keep policy (SLO flag / error flag /
// deterministic 1-in-N hash), boundedness accounting (every span the
// tracer saw is in exactly one SamplerStats bucket), and byte-determinism
// of the kept-trace set across identical runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/sim/trace.h"

namespace solros {
namespace {

// One root + `children` child spans, optionally flagged before the root
// closes (the order the SLO watchdog and stubs use). Returns the trace id.
uint64_t EmitTrace(Tracer& tracer, Simulator& sim, int children,
                   bool flag_slo, bool flag_error) {
  TraceContext root_ctx{tracer.NewTraceId(), 0};
  uint64_t root = tracer.BeginSpan("stub", "fs.stub.call", root_ctx);
  TraceContext ctx = tracer.ContextOf(root);
  for (int i = 0; i < children; ++i) {
    uint64_t child = tracer.BeginSpan("proxy", "fs.proxy.service", ctx);
    sim.RunUntil(sim.now() + 10);
    tracer.EndSpan(child);
  }
  if (flag_slo) {
    tracer.FlagTrace(root_ctx.trace_id, Tracer::TraceFlag::kSloViolation);
  }
  if (flag_error) {
    tracer.FlagTrace(root_ctx.trace_id, Tracer::TraceFlag::kError);
  }
  sim.RunUntil(sim.now() + 5);
  tracer.EndSpan(root);
  return root_ctx.trace_id;
}

TEST(TraceSamplingTest, FlaggedTracesAreKeptUnflaggedDropped) {
  Simulator sim;
  Tracer tracer(&sim);
  // keep_one_in = 0: no hash keep, so retention is exactly the flag set.
  tracer.EnableSampling(0);
  EmitTrace(tracer, sim, 1, /*flag_slo=*/true, /*flag_error=*/false);
  EmitTrace(tracer, sim, 1, /*flag_slo=*/false, /*flag_error=*/true);
  EmitTrace(tracer, sim, 1, /*flag_slo=*/false, /*flag_error=*/false);

  const SamplerStats& stats = tracer.sampler_stats();
  EXPECT_EQ(stats.traces_kept, 2u);
  EXPECT_EQ(stats.kept_slo, 1u);
  EXPECT_EQ(stats.kept_error, 1u);
  EXPECT_EQ(stats.kept_hash, 0u);
  EXPECT_EQ(stats.traces_dropped, 1u);
  // Boundedness partition: 2 kept traces x 2 spans land in spans(); the
  // dropped trace's 2 spans are only counted.
  EXPECT_EQ(stats.spans_kept, 4u);
  EXPECT_EQ(stats.spans_dropped, 2u);
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.pending_traces(), 0u);
}

TEST(TraceSamplingTest, HashKeepOneInOneKeepsEverything) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.EnableSampling(1);
  for (int i = 0; i < 5; ++i) {
    EmitTrace(tracer, sim, 1, false, false);
  }
  const SamplerStats& stats = tracer.sampler_stats();
  EXPECT_EQ(stats.traces_kept, 5u);
  EXPECT_EQ(stats.kept_hash, 5u);
  EXPECT_EQ(stats.traces_dropped, 0u);
  EXPECT_EQ(tracer.spans().size(), 10u);
}

TEST(TraceSamplingTest, PerTraceBufferTruncatesOverflowSpans) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.EnableSampling(0, /*max_spans_per_trace=*/2);
  EmitTrace(tracer, sim, 4, /*flag_slo=*/true, /*flag_error=*/false);
  const SamplerStats& stats = tracer.sampler_stats();
  EXPECT_EQ(stats.traces_kept, 1u);
  EXPECT_EQ(stats.spans_truncated, 2u);
  // Kept: the root plus the first two children the buffer admitted.
  EXPECT_EQ(stats.spans_kept, 3u);
  EXPECT_EQ(tracer.spans().size(), 3u);
}

TEST(TraceSamplingTest, UntracedSpansAreNeverRetained) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.EnableSampling(1);
  uint64_t span = tracer.BeginSpan("bench", "fs.op");
  sim.RunUntil(10);
  tracer.EndSpan(span);
  EXPECT_EQ(tracer.sampler_stats().untraced_dropped, 1u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TraceSamplingTest, SpanClosingAfterRootDecisionIsCountedLate) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.EnableSampling(0);
  TraceContext root_ctx{tracer.NewTraceId(), 0};
  uint64_t root = tracer.BeginSpan("stub", "fs.stub.call", root_ctx);
  uint64_t straggler =
      tracer.BeginSpan("proxy", "fs.proxy.service", tracer.ContextOf(root));
  tracer.FlagTrace(root_ctx.trace_id, Tracer::TraceFlag::kSloViolation);
  sim.RunUntil(50);
  tracer.EndSpan(root);  // decides the trace with the child still open
  sim.RunUntil(80);
  tracer.EndSpan(straggler);
  const SamplerStats& stats = tracer.sampler_stats();
  EXPECT_EQ(stats.traces_kept, 1u);
  EXPECT_EQ(stats.late_spans, 1u);
  EXPECT_EQ(stats.spans_kept, 1u);  // the root only
  EXPECT_EQ(tracer.spans().size(), 1u);
}

// A flag that lands after its root decided (a proxy handler still running
// when the stub's last attempt timed out) opens no pending trace, also for
// a trace whose decided id was already pruned from the straggler guard.
TEST(TraceSamplingTest, FlagAfterRootDecisionLeavesNothingPending) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.EnableSampling(0);
  uint64_t first = EmitTrace(tracer, sim, 1, false, false);
  tracer.FlagTrace(first, Tracer::TraceFlag::kError);
  EXPECT_EQ(tracer.pending_traces(), 0u);
  for (int i = 0; i < 4200; ++i) {  // past the 4096-id pruning threshold
    EmitTrace(tracer, sim, 0, false, false);
  }
  tracer.FlagTrace(first, Tracer::TraceFlag::kSloViolation);
  EXPECT_EQ(tracer.pending_traces(), 0u);
  EXPECT_EQ(tracer.sampler_stats().traces_kept, 0u);
}

TEST(TraceSamplingTest, SampledExportIsByteIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    Simulator sim;
    Tracer tracer(&sim);
    tracer.EnableSampling(4);
    for (int i = 0; i < 32; ++i) {
      EmitTrace(tracer, sim, 2, /*flag_slo=*/i % 7 == 0, false);
    }
    std::ostringstream os;
    tracer.ExportChromeTrace(os);
    // The hash must actually drop something, or the test proves nothing.
    EXPECT_GT(tracer.sampler_stats().traces_dropped, 0u);
    EXPECT_GT(tracer.sampler_stats().traces_kept, 0u);
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace solros
