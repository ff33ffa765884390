// SLO watchdog: per-stage budget evaluation on root-span close, sustained
// violation streaks, and the SOLROS_SLO_STAGES budget parser.
#include "src/sim/slo_watchdog.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/sim/flight_recorder.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

class SloWatchdogTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("SOLROS_SLO_STAGES"); }
};

// Records one synthetic traced request: the stage children first, then the
// root (parent uid is arbitrary nonzero — the watchdog only distinguishes
// root from non-root).
void CloseRequest(Tracer* tracer, uint64_t tid, Nanos total, Nanos queue,
                  Nanos device) {
  tracer->RecordSpan("ring", "rpc.queue.req", 0, queue,
                     TraceContext{tid, 1});
  tracer->RecordSpan("nvme", "nvme.batch", queue, queue + device,
                     TraceContext{tid, 1});
  tracer->RecordSpan("stub", "fs.op", 0, total, TraceContext{tid, 0});
}

TEST_F(SloWatchdogTest, WithinBudgetCountsRootsWithoutViolations) {
  Simulator sim;
  Tracer tracer(&sim);
  SloBudgets budgets;
  budgets[Stage::kTotal] = 1000;
  SloWatchdog watchdog(&sim, budgets);
  watchdog.Bind(&tracer);
  for (uint64_t tid = 1; tid <= 4; ++tid) {
    CloseRequest(&tracer, tid, 500, 100, 200);
  }
  EXPECT_EQ(watchdog.roots_seen(), 4u);
  EXPECT_EQ(watchdog.violations(), 0u);
  EXPECT_EQ(watchdog.dumps_fired(), 0u);
  EXPECT_EQ(watchdog.Summary(),
            "slo_watchdog: roots=4 violations=0 dumps=0");
}

TEST_F(SloWatchdogTest, SustainedViolationsFireTheFlightRecorderOnce) {
  Simulator sim;
  Tracer tracer(&sim);
  FlightRecorder recorder(16);
  tracer.set_flight_recorder(&recorder);
  SloBudgets budgets;
  budgets[Stage::kDevice] = 100;
  SloWatchdog watchdog(&sim, budgets, /*sustain=*/3);
  watchdog.Bind(&tracer);
  for (uint64_t tid = 1; tid <= 3; ++tid) {
    CloseRequest(&tracer, tid, 500, 50, 200);  // device 200 > 100
  }
  EXPECT_EQ(watchdog.violations(), 3u);
  EXPECT_EQ(watchdog.dumps_fired(), 1u);
  ASSERT_EQ(recorder.total_dumps(), 1u);
  EXPECT_EQ(recorder.dumps()[0].trigger,
            "slo watchdog: device over budget on trace 3");
  // The streak re-arms after a dump: two more violations stay short of a
  // second one, the third fires again.
  CloseRequest(&tracer, 4, 500, 50, 200);
  CloseRequest(&tracer, 5, 500, 50, 200);
  EXPECT_EQ(watchdog.dumps_fired(), 1u);
  CloseRequest(&tracer, 6, 500, 50, 200);
  EXPECT_EQ(watchdog.dumps_fired(), 2u);
  EXPECT_EQ(watchdog.Summary(),
            "slo_watchdog: roots=6 violations=6 dumps=2 worst=device");
}

TEST_F(SloWatchdogTest, AHealthyRequestResetsTheStreak) {
  Simulator sim;
  Tracer tracer(&sim);
  SloBudgets budgets;
  budgets[Stage::kTotal] = 300;
  SloWatchdog watchdog(&sim, budgets, /*sustain=*/3);
  watchdog.Bind(&tracer);
  CloseRequest(&tracer, 1, 500, 0, 0);
  CloseRequest(&tracer, 2, 500, 0, 0);
  CloseRequest(&tracer, 3, 100, 0, 0);  // healthy: streak back to zero
  CloseRequest(&tracer, 4, 500, 0, 0);
  CloseRequest(&tracer, 5, 500, 0, 0);
  EXPECT_EQ(watchdog.violations(), 4u);
  EXPECT_EQ(watchdog.dumps_fired(), 0u);
  EXPECT_EQ(watchdog.worst_stage(), "total");
}

TEST_F(SloWatchdogTest, FirstOffendingStageInFixedOrderIsBlamed) {
  Simulator sim;
  Tracer tracer(&sim);
  SloBudgets budgets;
  budgets[Stage::kQueue] = 50;
  budgets[Stage::kDevice] = 50;
  SloWatchdog watchdog(&sim, budgets, /*sustain=*/1);
  watchdog.Bind(&tracer);
  // Both queue (100) and device (200) are over; queue comes first in the
  // fixed stage order so it is the recorded reason.
  CloseRequest(&tracer, 1, 500, 100, 200);
  EXPECT_EQ(watchdog.violations(), 1u);
  EXPECT_EQ(watchdog.worst_stage(), "queue");
}

TEST_F(SloWatchdogTest, UntracedSpansAndChildrenAreNotRoots) {
  Simulator sim;
  Tracer tracer(&sim);
  SloBudgets budgets;
  budgets[Stage::kTotal] = 1;
  SloWatchdog watchdog(&sim, budgets, /*sustain=*/1);
  watchdog.Bind(&tracer);
  // Untraced pump span and a traced child: neither closes a request.
  tracer.RecordSpan("pump", "net.proxy.inbound", 0, 1000);
  tracer.RecordSpan("nvme", "nvme.batch", 0, 1000, TraceContext{9, 5});
  EXPECT_EQ(watchdog.roots_seen(), 0u);
  EXPECT_EQ(watchdog.violations(), 0u);
}

// A total budget with sustain 1 dumps the flight recorder on every slow
// request, naming the stage and the trace.
TEST_F(SloWatchdogTest, TotalBudgetWithSustainOneDumpsEachSlowRoot) {
  Simulator sim;
  Tracer tracer(&sim);
  FlightRecorder recorder(16);
  tracer.set_flight_recorder(&recorder);
  SloBudgets budgets;
  budgets[Stage::kTotal] = 100;
  SloWatchdog watchdog(&sim, budgets, /*sustain=*/1);
  watchdog.Bind(&tracer);
  // A slow child and a slow untraced span are not end-to-end views: no dump.
  tracer.RecordSpan("nvme", "nvme.batch", 0, 500, TraceContext{7, 3});
  tracer.RecordSpan("pump", "net.proxy.inbound", 0, 500);
  // A root exactly at the budget is within SLO.
  tracer.RecordSpan("stub", "fs.op", 0, 100, TraceContext{6, 0});
  EXPECT_EQ(recorder.total_dumps(), 0u);
  // A root over the budget dumps.
  tracer.RecordSpan("stub", "fs.op", 0, 250, TraceContext{8, 0});
  ASSERT_EQ(recorder.total_dumps(), 1u);
  EXPECT_EQ(recorder.dumps()[0].trigger,
            "slo watchdog: total over budget on trace 8");
  // The preceding events are the forensics payload.
  EXPECT_GE(recorder.dumps()[0].entries.size(), 3u);
}

TEST_F(SloWatchdogTest, BudgetsParseFromTheEnvironment) {
  unsetenv("SOLROS_SLO_STAGES");
  Result<SloBudgets> unset = SloBudgetsFromEnv();
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset->any());
  // One bad item rejects the whole spec instead of being skipped.
  setenv("SOLROS_SLO_STAGES",
         "total=1000,device=200,bogus=5,proxy=30,noequals", 1);
  Result<SloBudgets> rejected = SloBudgetsFromEnv();
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("\"bogus=5\""),
            std::string::npos);
  setenv("SOLROS_SLO_STAGES", "total=1000,device=200,proxy=30,wire=7", 1);
  Result<SloBudgets> budgets = SloBudgetsFromEnv();
  ASSERT_TRUE(budgets.ok()) << budgets.status().ToString();
  EXPECT_TRUE(budgets->any());
  EXPECT_EQ((*budgets)[Stage::kTotal], 1000u);
  EXPECT_EQ((*budgets)[Stage::kDevice], 200u);
  EXPECT_EQ((*budgets)[Stage::kProxy], 30u);
  EXPECT_EQ((*budgets)[Stage::kWire], 7u);
  EXPECT_EQ((*budgets)[Stage::kQueue], 0u);
  EXPECT_EQ((*budgets)[Stage::kStub], 0u);
}

// Every malformed item is rejected, and the error names it: a unit suffix
// (which strtoull would have read as 2 ns), an unknown or deleted stage, an
// item with no '=' or no value, and an empty item.
TEST_F(SloWatchdogTest, MalformedBudgetItemsAreRejectedByName) {
  for (const char* bad : {"device=2ms", "bogus=5", "dispatch=100",
                          "noequals", "queue=", "queue=-1", "total=1,,stub=2",
                          "device= 5"}) {
    setenv("SOLROS_SLO_STAGES", (std::string("total=1000,") + bad).c_str(), 1);
    Result<SloBudgets> budgets = SloBudgetsFromEnv();
    ASSERT_FALSE(budgets.ok()) << bad;
    EXPECT_EQ(budgets.code(), ErrorCode::kInvalidArgument) << bad;
  }
  setenv("SOLROS_SLO_STAGES", "total=1000,device=2ms", 1);
  EXPECT_NE(SloBudgetsFromEnv().status().ToString().find("\"device=2ms\""),
            std::string::npos);
}

}  // namespace
}  // namespace solros
