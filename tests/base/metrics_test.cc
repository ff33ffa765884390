#include "src/base/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace solros {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddAndNegative) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(GaugeTest, MaxTracksTheHighWatermark) {
  Gauge g;
  EXPECT_EQ(g.max_value(), 0);
  g.Set(10);
  g.Add(5);   // 15 — new peak
  g.Add(-12);  // 3 — peak stays
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 15);
  g.Set(8);  // below the peak
  EXPECT_EQ(g.max_value(), 15);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
  // Negative excursions never raise the watermark above zero.
  g.Add(-4);
  EXPECT_EQ(g.value(), -4);
  EXPECT_EQ(g.max_value(), 0);
}

TEST(LatencyHistogramTest, RecordsAndQueries) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.Record(i * 1000);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.Mean(), 0.0);
  EXPECT_LE(h.ValueAtQuantile(0.5), h.ValueAtQuantile(0.99));
  EXPECT_GE(h.max(), 100000u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricRegistryTest, HandlesAreStableAndSharedByName) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  Gauge* g = registry.GetGauge("x.level");
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(a));
  EXPECT_EQ(registry.GetGauge("x.level"), g);
  EXPECT_EQ(registry.GetHistogram("x.lat"), registry.GetHistogram("x.lat"));
}

TEST(MetricRegistryTest, KindMismatchDies) {
  MetricRegistry registry;
  registry.GetCounter("dual");
  EXPECT_DEATH(registry.GetGauge("dual"), "dual");
}

TEST(MetricRegistryTest, SnapshotIsNameSorted) {
  MetricRegistry registry;
  registry.GetCounter("zz")->Increment(2);
  registry.GetCounter("aa")->Increment(1);
  registry.GetGauge("mid")->Set(-7);
  registry.GetHistogram("lat")->Record(500);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "aa");
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.counters[1].name, "zz");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -7);
  EXPECT_EQ(snapshot.gauges[0].max_value, 0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
}

TEST(MetricRegistryTest, DumpTextContainsEveryMetric) {
  MetricRegistry registry;
  registry.GetCounter("reqs")->Increment(9);
  registry.GetGauge("depth")->Set(4);
  registry.GetHistogram("ns")->Record(1000);
  std::ostringstream os;
  registry.DumpText(os);
  std::string text = os.str();
  EXPECT_NE(text.find("reqs"), std::string::npos);
  EXPECT_NE(text.find("9"), std::string::npos);
  EXPECT_NE(text.find("depth"), std::string::npos);
  EXPECT_NE(text.find("ns"), std::string::npos);
}

TEST(MetricRegistryTest, SnapshotCarriesGaugeValueAndWatermark) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("q.depth");
  g->Set(9);
  g->Set(2);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "q.depth");
  EXPECT_EQ(snapshot.gauges[0].value, 2);
  EXPECT_EQ(snapshot.gauges[0].max_value, 9);
}

TEST(MetricRegistryTest, ResetAllZeroesButKeepsHandles) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("n");
  Gauge* g = registry.GetGauge("g");
  LatencyHistogram* h = registry.GetHistogram("h");
  c->Increment(5);
  g->Set(5);
  h->Record(5);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(registry.GetCounter("n"), c);
}

TEST(MetricRegistryTest, ResetHistogramsLeavesCountersAndGauges) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("kept.counter");
  Gauge* g = registry.GetGauge("kept.gauge");
  LatencyHistogram* h = registry.GetHistogram("cleared.hist");
  c->Increment(7);
  g->Set(-3);
  h->Record(5000);
  registry.ResetHistograms();
  EXPECT_EQ(c->value(), 7u);
  EXPECT_EQ(g->value(), -3);
  EXPECT_EQ(h->count(), 0u);
  // The registered pointer stays valid and usable after the reset — a
  // warmup/measured-window boundary must not invalidate cached handles.
  h->Record(9000);
  EXPECT_EQ(registry.GetHistogram("cleared.hist")->count(), 1u);
}

TEST(MetricRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("threads");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c] {
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        registry.GetHistogram("shared")->Record(100);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.GetHistogram("shared")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricRegistryTest, DefaultIsProcessWide) {
  Counter* c =
      MetricRegistry::Default().GetCounter("metrics_test.default_probe");
  c->Increment();
  EXPECT_EQ(
      MetricRegistry::Default().GetCounter("metrics_test.default_probe"), c);
  EXPECT_GE(c->value(), 1u);
}

}  // namespace
}  // namespace solros
