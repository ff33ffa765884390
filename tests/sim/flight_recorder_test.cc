#include "src/sim/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/base/fault.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { Faults().DisarmAll(); }
};

TEST_F(FlightRecorderTest, RingKeepsOnlyTheNewestEntries) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    recorder.Note('I', "t", std::string("e").append(std::to_string(i)), 0, i);
  }
  recorder.Dump("test");
  ASSERT_EQ(recorder.dumps().size(), 1u);
  const auto& entries = recorder.dumps()[0].entries;
  ASSERT_EQ(entries.size(), 4u);
  // Oldest-first: the last 4 of the 10 notes, in order.
  EXPECT_EQ(entries[0].name, "e6");
  EXPECT_EQ(entries[3].name, "e9");
  EXPECT_EQ(recorder.dumps()[0].trigger, "test");
  EXPECT_EQ(recorder.dumps()[0].at, 9u);
}

TEST_F(FlightRecorderTest, TracerFeedsTheRecorder) {
  Simulator sim;
  Tracer tracer(&sim);
  FlightRecorder recorder(16);
  tracer.set_flight_recorder(&recorder);
  uint64_t id = tracer.BeginSpan("nvme", "nvme.cmd", TraceContext{42, 0});
  sim.RunUntil(10);
  tracer.Instant("nvme", "fault.nvme.timeout");
  tracer.EndSpan(id);
  recorder.Dump("manual");
  ASSERT_EQ(recorder.dumps().size(), 1u);
  const auto& entries = recorder.dumps()[0].entries;
  ASSERT_EQ(entries.size(), 3u);  // B, I, E
  EXPECT_EQ(entries[0].kind, 'B');
  EXPECT_EQ(entries[0].trace_id, 42u);
  EXPECT_EQ(entries[1].kind, 'I');
  EXPECT_EQ(entries[2].kind, 'E');
}

TEST_F(FlightRecorderTest, FaultFireTriggersADumpNamingThePoint) {
  Simulator sim;
  Tracer tracer(&sim);
  FlightRecorder recorder(16);
  tracer.set_flight_recorder(&recorder);
  recorder.ArmFaultTrigger();
  // Some activity before the fault so the dump has preceding events.
  uint64_t id = tracer.BeginSpan("proxy", "before.fault", TraceContext{1, 0});
  sim.RunUntil(5);
  tracer.EndSpan(id);

  ASSERT_TRUE(
      Faults().Arm("test.recorder.point", FaultSpec::OneShot()).ok());
  FaultPoint* point = Faults().GetPoint("test.recorder.point");
  EXPECT_TRUE(point->ShouldFire());
  ASSERT_EQ(recorder.dumps().size(), 1u);
  EXPECT_EQ(recorder.dumps()[0].trigger, "fault: test.recorder.point");
  // The preceding span events are in the dump.
  bool saw_before = false;
  for (const auto& e : recorder.dumps()[0].entries) {
    if (e.name == "before.fault") {
      saw_before = true;
    }
  }
  EXPECT_TRUE(saw_before);
  // Subsequent non-fires do not dump again.
  EXPECT_FALSE(point->ShouldFire());
  EXPECT_EQ(recorder.total_dumps(), 1u);
}

TEST_F(FlightRecorderTest, DumpsAreBoundedAtKMaxDumps) {
  FlightRecorder recorder(4);
  recorder.Note('I', "t", "e", 0, 1);
  for (size_t i = 0; i < FlightRecorder::kMaxDumps + 3; ++i) {
    recorder.Dump(std::string("d").append(std::to_string(i)));
  }
  EXPECT_EQ(recorder.dumps().size(), FlightRecorder::kMaxDumps);
  EXPECT_EQ(recorder.total_dumps(), FlightRecorder::kMaxDumps + 3);
  // Oldest dumps were discarded; the newest is retained.
  EXPECT_EQ(recorder.dumps().back().trigger,
            std::string("d").append(
                std::to_string(FlightRecorder::kMaxDumps + 2)));
  // Sequence numbers are stable 1-based ordinals.
  EXPECT_EQ(recorder.dumps().back().seq, FlightRecorder::kMaxDumps + 3);
}

TEST_F(FlightRecorderTest, MaybeDumpIsNullSafeAtEveryHop) {
  MaybeDumpFlightRecorder(nullptr, "no sim");  // must not crash
  Simulator sim;
  MaybeDumpFlightRecorder(&sim, "no tracer");
  Tracer tracer(&sim);
  MaybeDumpFlightRecorder(&sim, "no recorder");
  FlightRecorder recorder(8);
  tracer.set_flight_recorder(&recorder);
  tracer.Instant("t", "tick");
  MaybeDumpFlightRecorder(&sim, "wired");
  EXPECT_EQ(recorder.total_dumps(), 1u);
  EXPECT_EQ(recorder.dumps()[0].trigger, "wired");
}

TEST_F(FlightRecorderTest, WriteTextNamesTriggerAndEvents) {
  FlightRecorder recorder(8);
  recorder.Note('B', "nvme", "nvme.cmd", 7, 100);
  recorder.Dump("fault: nvme.cmd.timeout");
  std::ostringstream os;
  recorder.WriteText(os);
  std::string text = os.str();
  EXPECT_NE(text.find("fault: nvme.cmd.timeout"), std::string::npos);
  EXPECT_NE(text.find("nvme/nvme.cmd"), std::string::npos);
  EXPECT_NE(text.find("trace=7"), std::string::npos);
}

TEST_F(FlightRecorderTest, DestructorReleasesTheFaultTrigger) {
  {
    FlightRecorder recorder(8);
    recorder.ArmFaultTrigger();
  }
  // A fire after the recorder died must not touch freed memory (the
  // destructor removed the listener).
  ASSERT_TRUE(
      Faults().Arm("test.recorder.after", FaultSpec::OneShot()).ok());
  EXPECT_TRUE(Faults().GetPoint("test.recorder.after")->ShouldFire());
}

}  // namespace
}  // namespace solros
