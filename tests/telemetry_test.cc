// Copyright 2026 The LTAM Authors.
// The metrics registry's contracts: counters aggregate exactly across
// threads, handles stay valid and shared, kind collisions degrade
// instead of aborting, snapshots are safe while writers run (the TSan
// job hammers this file), and the two text renderings are well-formed.

#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace ltam {
namespace {

TEST(MetricsRegistryTest, CounterAggregatesExactlyAcrossThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ingest.events");
  ASSERT_NE(nullptr, counter);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(kThreads * kPerThread, counter->value());

  counter->Increment(42);
  EXPECT_EQ(kThreads * kPerThread + 42, counter->value());
}

TEST(MetricsRegistryTest, LookupsShareHandlesAndCollisionsDegrade) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("a.counter");
  Gauge* gauge = registry.GetGauge("a.gauge");
  Histogram* histogram = registry.GetHistogram("a.histogram");
  ASSERT_NE(nullptr, counter);
  ASSERT_NE(nullptr, gauge);
  ASSERT_NE(nullptr, histogram);
  // Same name + same kind = the same object; call sites can resolve
  // independently and still share one series.
  EXPECT_EQ(counter, registry.GetCounter("a.counter"));
  EXPECT_EQ(gauge, registry.GetGauge("a.gauge"));
  EXPECT_EQ(histogram, registry.GetHistogram("a.histogram"));
  // A kind collision returns nullptr (caller degrades to
  // uninstrumented) and never disturbs the existing metric.
  EXPECT_EQ(nullptr, registry.GetHistogram("a.counter"));
  EXPECT_EQ(nullptr, registry.GetCounter("a.gauge"));
  EXPECT_EQ(nullptr, registry.GetGauge("a.histogram"));
  counter->Increment();
  EXPECT_EQ(1u, registry.GetCounter("a.counter")->value());

  // Find-only never creates.
  EXPECT_EQ(nullptr, registry.FindCounter("never.registered"));
  EXPECT_EQ(counter, registry.FindCounter("a.counter"));
  EXPECT_EQ(nullptr, registry.FindGauge("a.counter"));

  // Remove unregisters; the name is free for a different kind after.
  EXPECT_TRUE(registry.Remove("a.counter"));
  EXPECT_FALSE(registry.Remove("a.counter"));
  EXPECT_EQ(nullptr, registry.FindCounter("a.counter"));
  EXPECT_NE(nullptr, registry.GetGauge("a.counter"));
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("replication.replica.3.lag_records");
  gauge->Set(500);
  EXPECT_EQ(500, gauge->value());
  gauge->Set(-7);  // Lag gauges can legitimately go negative-signed.
  EXPECT_EQ(-7, gauge->value());
  gauge->Set(0);
  EXPECT_EQ(0, gauge->value());
}

TEST(MetricsRegistryTest, HistogramCollectsEveryThreadIntoOneDistribution) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("ingest.apply");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record(static_cast<uint64_t>(1000 + t * 100 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LatencyHistogram merged = histogram->Snapshot();
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kPerThread), merged.count());
  EXPECT_EQ(1000u, merged.min());
  EXPECT_EQ(static_cast<uint64_t>(1000 + 700 + kPerThread - 1),
            merged.max());
  // Every recorded value is in [1000, 7000), so the quantiles must be.
  EXPECT_GE(merged.p50(), 1000u);
  EXPECT_LE(merged.p999(), merged.max() * 2);
}

TEST(MetricsRegistryTest, SnapshotWhileWritersRunNeverTearsAHistogram) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        histogram->Record(++i);
      }
    });
  }
  // Concurrent scrapes: every snapshot must be internally coherent —
  // bucket sums equal to counts, min <= max — even mid-write. FromParts
  // re-validates exactly those invariants.
  for (int scrape = 0; scrape < 200; ++scrape) {
    MetricsSnapshot snapshot = registry.Snapshot();
    ASSERT_EQ(1u, snapshot.counters.size());
    ASSERT_EQ(1u, snapshot.histograms.size());
    const LatencyHistogram& h = snapshot.histograms[0].second;
    ASSERT_OK(LatencyHistogram::FromParts(h.count(), h.sum(),
                                          h.count() > 0 ? h.min() : 0,
                                          h.max(), h.NonZeroBuckets())
                  .status());
    // Also exercise the renderers under concurrency.
    (void)ToPrometheusText(snapshot);
    (void)MetricsSummaryText(snapshot);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
}

TEST(MetricsRegistryTest, SnapshotSortsNamesWithinEachKind) {
  MetricsRegistry registry;
  registry.GetCounter("z.last");
  registry.GetCounter("a.first");
  registry.GetHistogram("m.middle");
  registry.GetGauge("b.gauge");
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(2u, snapshot.counters.size());
  EXPECT_EQ("a.first", snapshot.counters[0].first);
  EXPECT_EQ("z.last", snapshot.counters[1].first);
  ASSERT_EQ(1u, snapshot.gauges.size());
  ASSERT_EQ(1u, snapshot.histograms.size());
}

TEST(LatencyHistogramPartsTest, NonZeroBucketsRoundTripsThroughFromParts) {
  LatencyHistogram original;
  original.Record(1);
  original.Record(999);
  original.Record(12345);
  original.Record(12346);
  original.Record(1u << 30);
  ASSERT_OK_AND_ASSIGN(
      LatencyHistogram rebuilt,
      LatencyHistogram::FromParts(original.count(), original.sum(),
                                  original.min(), original.max(),
                                  original.NonZeroBuckets()));
  EXPECT_EQ(original.count(), rebuilt.count());
  EXPECT_EQ(original.mean(), rebuilt.mean());
  EXPECT_EQ(original.min(), rebuilt.min());
  EXPECT_EQ(original.max(), rebuilt.max());
  EXPECT_EQ(original.p50(), rebuilt.p50());
  EXPECT_EQ(original.p999(), rebuilt.p999());
  EXPECT_EQ(original.NonZeroBuckets(), rebuilt.NonZeroBuckets());

  // A rebuilt histogram merges like any other — the offline-merge path
  // for split load runs.
  LatencyHistogram other;
  other.Record(50);
  rebuilt.Merge(other);
  EXPECT_EQ(original.count() + 1, rebuilt.count());
  EXPECT_EQ(original.min(), rebuilt.min());  // 1 < 50: the min survives.
  EXPECT_EQ(original.sum() + 50, rebuilt.sum());

  // An empty histogram round-trips too (min is the sentinel).
  ASSERT_OK_AND_ASSIGN(LatencyHistogram empty,
                       LatencyHistogram::FromParts(0, 0, 0, 0, {}));
  EXPECT_EQ(0u, empty.count());
}

TEST(LatencyHistogramPartsTest, FromPartsRejectsInconsistentParts) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(200);
  const auto buckets = h.NonZeroBuckets();
  // Bucket counts that do not sum to the advertised count.
  EXPECT_FALSE(LatencyHistogram::FromParts(3, h.sum(), h.min(), h.max(),
                                           buckets)
                   .ok());
  // min > max with a nonzero count.
  EXPECT_FALSE(
      LatencyHistogram::FromParts(h.count(), h.sum(), 500, 200, buckets)
          .ok());
  // Out-of-range bucket index.
  EXPECT_FALSE(
      LatencyHistogram::FromParts(
          1, 1, 1, 1,
          {{static_cast<uint32_t>(LatencyHistogram::NumBuckets()), 1}})
          .ok());
  // Non-ascending bucket indices.
  auto unsorted = buckets;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_FALSE(LatencyHistogram::FromParts(h.count(), h.sum(), h.min(),
                                           h.max(), unsorted)
                   .ok());
  // A zero-count bucket is a malformed dump, not an empty slot.
  EXPECT_FALSE(
      LatencyHistogram::FromParts(h.count(), h.sum(), h.min(), h.max(),
                                  {{buckets[0].first, buckets[0].second},
                                   {buckets[1].first + 1, 0}})
          .ok());
}

TEST(MetricsTextTest, PrometheusExpositionIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("ingest.events")->Increment(321);
  registry.GetGauge("replication.replica.3.lag_records")->Set(17);
  Histogram* histogram = registry.GetHistogram("ingest.apply");
  for (int i = 1; i <= 100; ++i) {
    histogram->Record(static_cast<uint64_t>(i) * 10000);  // 10us..1ms.
  }
  const std::string text = ToPrometheusText(registry.Snapshot());

  // Dots sanitized, ltam_ prefix applied, TYPE lines present.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE ltam_ingest_events counter"));
  EXPECT_NE(std::string::npos, text.find("ltam_ingest_events 321"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE ltam_replication_replica_3_lag_records gauge"));
  EXPECT_NE(std::string::npos,
            text.find("ltam_replication_replica_3_lag_records 17"));
  // Histograms render as summaries in SECONDS with a _seconds suffix.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE ltam_ingest_apply_seconds summary"));
  EXPECT_NE(std::string::npos,
            text.find("ltam_ingest_apply_seconds{quantile=\"0.5\"}"));
  EXPECT_NE(std::string::npos,
            text.find("ltam_ingest_apply_seconds{quantile=\"0.999\"}"));
  EXPECT_NE(std::string::npos, text.find("ltam_ingest_apply_seconds_count 100"));
  EXPECT_NE(std::string::npos, text.find("ltam_ingest_apply_seconds_sum"));

  // Structurally: every non-comment line is "name[{labels}] value" and
  // every line ends in newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ('\n', text.back());
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(std::string::npos, space) << line;
    EXPECT_EQ(0u, line.find("ltam_")) << line;
    // The value parses as a double.
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
}

TEST(MetricsTextTest, SummaryTextMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("ingest.frames")->Increment(5);
  registry.GetGauge("replication.replica.1.lag_records")->Set(3);
  registry.GetHistogram("ingest.e2e")->Record(2'000'000);
  const std::string text = MetricsSummaryText(registry.Snapshot());
  EXPECT_NE(std::string::npos, text.find("ingest.frames"));
  EXPECT_NE(std::string::npos,
            text.find("replication.replica.1.lag_records"));
  EXPECT_NE(std::string::npos, text.find("ingest.e2e"));
  EXPECT_NE(std::string::npos, text.find("n=1"));
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateConvergesToOneHandle) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.GetCounter("contended.name");
      c->Increment();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(static_cast<uint64_t>(kThreads), seen[0]->value());
}

}  // namespace
}  // namespace ltam
