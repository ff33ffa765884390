// Bounded retry (src/sim/retry.h): one attempt and no simulated time while
// nothing is armed; while a fault is armed, `max_attempts` attempts with a
// doubling backoff, each retry counted, traced and flagged; a result the
// predicate calls final stops at once.
#include "src/sim/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

constexpr RetrySite kSite{"test.retry.retries", "test", "test.retry.retry"};
constexpr RetryPolicy kPolicy{.max_attempts = 4, .backoff = Microseconds(10)};
constexpr Nanos kTimeout = Microseconds(500);

class RetryTest : public ::testing::Test {
 protected:
  void SetUp() override { Faults().DisarmAll(); }
  void TearDown() override { Faults().DisarmAll(); }

  // Arms a point no code path in this test reaches: the fault is armed,
  // but nothing fires.
  static void ArmAFault() {
    ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::OneShot()).ok());
  }

  static uint64_t Retries() {
    return MetricRegistry::Default().GetCounter(kSite.counter)->value();
  }

  // Runs Retry under `policy` with an attempt that records when it started
  // and the timeout it was handed, and fails with `code` every time.
  Status RunFailing(ErrorCode code, uint64_t trace_id = 0) {
    return RunSim(sim_, Retry(
                            kPolicy, kTimeout, kSite, trace_id,
                            [&](Nanos timeout) -> Task<Status> {
                              starts_.push_back(sim_.now());
                              timeouts_.push_back(timeout);
                              co_return Status(code);
                            },
                            [](const Status& status) {
                              return IsTransientError(status.code());
                            }));
  }

  Simulator sim_;
  Tracer tracer_{&sim_};
  std::vector<SimTime> starts_;
  std::vector<Nanos> timeouts_;
};

TEST_F(RetryTest, NothingArmedMakesOneUntimedAttempt) {
  const uint64_t retries = Retries();
  EXPECT_EQ(RunFailing(ErrorCode::kIoError).code(), ErrorCode::kIoError);
  EXPECT_EQ(starts_, std::vector<SimTime>{0});
  EXPECT_EQ(timeouts_, std::vector<Nanos>{0});
  EXPECT_EQ(sim_.now(), 0u);
  EXPECT_EQ(Retries(), retries);
  EXPECT_TRUE(tracer_.instants().empty());
}

TEST_F(RetryTest, ArmedRetriesBackOffDoublingCountedTracedAndFlagged) {
  ArmAFault();
  tracer_.EnableSampling(/*keep_one_in=*/0);
  const uint64_t retries = Retries();
  const TraceContext root_ctx{tracer_.NewTraceId(), 0};
  const uint64_t root = tracer_.BeginSpan("test", "root", root_ctx);
  EXPECT_EQ(RunFailing(ErrorCode::kTimedOut, root_ctx.trace_id).code(),
            ErrorCode::kTimedOut);
  tracer_.EndSpan(root);

  // Backoffs of 1x, 2x and 4x between the four attempts.
  const Nanos b = kPolicy.backoff;
  EXPECT_EQ(starts_, (std::vector<SimTime>{0, b, 3 * b, 7 * b}));
  EXPECT_EQ(timeouts_, std::vector<Nanos>(4, kTimeout));
  EXPECT_EQ(Retries(), retries + 3);
  ASSERT_EQ(tracer_.instants().size(), 3u);
  for (const InstantRecord& instant : tracer_.instants()) {
    EXPECT_EQ(instant.name, kSite.instant);
    EXPECT_EQ(tracer_.track_name(instant.track), kSite.track);
  }
  EXPECT_EQ(tracer_.sampler_stats().kept_error, 1u);
}

TEST_F(RetryTest, ResultThePredicateRejectsStopsAfterOneAttempt) {
  ArmAFault();
  const uint64_t retries = Retries();
  EXPECT_EQ(RunFailing(ErrorCode::kNotFound).code(), ErrorCode::kNotFound);
  EXPECT_EQ(starts_.size(), 1u);
  EXPECT_EQ(timeouts_, std::vector<Nanos>{kTimeout});
  EXPECT_EQ(Retries(), retries);
  EXPECT_TRUE(tracer_.instants().empty());
}

}  // namespace
}  // namespace solros
