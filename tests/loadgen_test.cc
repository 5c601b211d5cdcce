// Copyright 2026 The LTAM Authors.
// The open-loop load generator: seeded arrival schedules are
// deterministic (the no-coordinated-omission contract starts with a
// reproducible schedule), a run against a live loopback server sends
// exactly the scenario's events with reproducible counters, an arrival
// rate far above server capacity is answered with per-connection quota
// refusals — never a deadlock or an unbounded queue — and the harness
// shuts down cleanly enough to run back-to-back against the same
// runtime. Part of the TSan CI job: N worker threads with pipelined
// clients against the epoll server exercise the full concurrent
// surface. The world a server boots on its own (GenerateScenarioWorld)
// is pinned to the load generator's world byte for byte.

#include "loadgen/loadgen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/access_runtime.h"
#include "service/server.h"
#include "sim/workload.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace ltam {
namespace {

TEST(ArrivalScheduleTest, DeterministicNondecreasingAtTargetRate) {
  const std::vector<uint64_t> a =
      BuildArrivalScheduleNs(5000, 2000.0, 1.0, 0, 42);
  const std::vector<uint64_t> b =
      BuildArrivalScheduleNs(5000, 2000.0, 1.0, 0, 42);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b) << "same arguments must give the identical schedule";
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
  // Mean gap of an exponential(rate) process: 1/rate. 5000 draws keep
  // the sample mean within a few percent.
  const double mean_gap_ns =
      static_cast<double>(a.back()) / static_cast<double>(a.size() - 1);
  EXPECT_NEAR(mean_gap_ns, 1e9 / 2000.0, 0.1 * 1e9 / 2000.0);
  // A different seed is a different schedule.
  EXPECT_NE(a, BuildArrivalScheduleNs(5000, 2000.0, 1.0, 0, 43));
}

TEST(ArrivalScheduleTest, BurstShapeConfinesArrivalsToDutyWindow) {
  const double duty = 0.25;
  const uint64_t period_ms = 100;
  const std::vector<uint64_t> sched =
      BuildArrivalScheduleNs(4000, 8000.0, duty, period_ms, 7);
  ASSERT_EQ(sched.size(), 4000u);
  const uint64_t period_ns = period_ms * 1'000'000ull;
  const uint64_t on_ns =
      static_cast<uint64_t>(static_cast<double>(period_ns) * duty);
  for (size_t i = 0; i < sched.size(); ++i) {
    ASSERT_LE(sched[i] % period_ns, on_ns + 1)
        << "arrival " << i << " lands outside the duty window";
    if (i > 0) {
      ASSERT_GE(sched[i], sched[i - 1]);
    }
  }
  // The mean rate over whole periods must stay at the target: the
  // last arrival of a rate-8000 schedule of 4000 events lands near
  // 0.5s regardless of the burst shape.
  EXPECT_NEAR(static_cast<double>(sched.back()) / 1e9, 0.5, 0.15);
}

std::string SnapshotBytes(const SystemState& state, const std::string& path) {
  const Status saved = SaveSnapshot(state, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(ScenarioWorldTest, WorldAloneMatchesTheFullScenario) {
  // ltam_serve boots GenerateScenarioWorld, while ltam_load and perfbench
  // build GenerateLoadScenario and send that world's ids over the wire:
  // the two worlds must be the same bytes, run with the same engine.
  const std::string dir = ::testing::TempDir();
  for (ScenarioFamily family :
       {ScenarioFamily::kSurge, ScenarioFamily::kContactSweep,
        ScenarioFamily::kPolicyChurn, ScenarioFamily::kMultiTenant,
        ScenarioFamily::kReplication, ScenarioFamily::kSoak}) {
    for (uint64_t seed : {1ull, 7919ull}) {
      SCOPED_TRACE(std::string(ScenarioFamilyToString(family)) + " seed " +
                   std::to_string(seed));
      ScenarioOptions o;
      o.seed = seed;
      o.streams = 2;
      o.total_events = 3000;
      ASSERT_OK_AND_ASSIGN(LoadScenario full, GenerateLoadScenario(family, o));
      ASSERT_OK_AND_ASSIGN(LoadScenario world,
                           GenerateScenarioWorld(family, o));
      EXPECT_EQ(3000u, full.total_events);
      EXPECT_EQ(SnapshotBytes(full.initial, dir + "/full_world.snap"),
                SnapshotBytes(world.initial, dir + "/world_only.snap"));
      EXPECT_EQ(full.engine.enforce_adjacency, world.engine.enforce_adjacency);
      EXPECT_EQ(full.engine.alert_on_denial, world.engine.alert_on_denial);
      EXPECT_EQ(full.subjects, world.subjects);
      EXPECT_EQ(full.queries, world.queries);
      EXPECT_TRUE(world.streams.empty());
      EXPECT_TRUE(world.mutations.empty());
      EXPECT_EQ(0u, world.total_events);
    }
  }
  std::remove((dir + "/full_world.snap").c_str());
  std::remove((dir + "/world_only.snap").c_str());
}

TEST(LoadGenTest, RejectsMismatchedOptions) {
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kSurge, ScenarioOptions{})
          .ValueOrDie();
  LoadGenOptions options;  // connections=1, scenario default streams=1.
  options.connections = 3;
  EXPECT_EQ(RunLoad(scenario, options).status().code(),
            StatusCode::kInvalidArgument);
  options.connections = 1;
  options.rate = 0;
  EXPECT_EQ(RunLoad(scenario, options).status().code(),
            StatusCode::kInvalidArgument);
}

/// Boots `scenario`'s world on an in-process server and runs the load
/// generator against it.
Result<LoadReport> RunAgainstLoopback(const LoadScenario& scenario,
                                      LoadGenOptions options,
                                      ServerOptions server_options = {}) {
  SystemState initial = scenario.initial;
  RuntimeOptions runtime_options;
  runtime_options.engine = scenario.engine;
  LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                        AccessRuntime::Open(std::move(initial),
                                            runtime_options));
  ServiceServer server(rt.get(), server_options);
  LTAM_RETURN_IF_ERROR(server.Start());
  options.port = server.bound_port();
  Result<LoadReport> report = RunLoad(scenario, options);
  server.Stop();
  return report;
}

TEST(LoadGenTest, SeededRunsAreReproducibleAndFullyAccounted) {
  ScenarioOptions so;
  so.subjects = 24;
  so.streams = 2;
  so.total_events = 600;
  so.events_per_frame = 16;
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kContactSweep, so).ValueOrDie();
  ASSERT_GT(scenario.queries.size(), 0u);

  LoadGenOptions options;
  options.connections = 2;
  options.rate = 50'000.0;  // Finish fast; counts don't depend on rate.
  options.schedule_seed = 9;

  LoadReport first = RunAgainstLoopback(scenario, options).ValueOrDie();
  LoadReport second = RunAgainstLoopback(scenario, options).ValueOrDie();

  // The deterministic side of an open-loop run: what was sent.
  EXPECT_EQ(first.events_sent, scenario.total_events);
  EXPECT_EQ(first.frames_sent, second.frames_sent);
  EXPECT_EQ(first.events_sent, second.events_sent);
  EXPECT_EQ(first.queries_sent, second.queries_sent);
  EXPECT_GT(first.queries_sent, 0u) << "contact sweep must mix in queries";
  EXPECT_GT(first.query_latency.count(), 0u);

  // Every sent event is answered exactly once: admitted with a
  // decision or refused at a quota.
  for (const LoadReport* r : {&first, &second}) {
    EXPECT_EQ(r->events_admitted + r->quota_refused_events, r->events_sent);
    EXPECT_EQ(r->grants + r->denials, r->events_admitted);
    EXPECT_EQ(r->ingest_latency.count() + r->quota_refused_frames,
              r->frames_sent);
  }
}

TEST(LoadGenTest, ChurnScenarioIssuesCheckpointBarriers) {
  ScenarioOptions so;
  so.subjects = 24;
  so.streams = 2;
  so.total_events = 600;
  so.events_per_frame = 16;
  so.mutate_every_frames = 4;
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kPolicyChurn, so).ValueOrDie();
  ASSERT_GT(scenario.mutations.size(), 0u);

  LoadGenOptions options;
  options.connections = 2;
  options.rate = 50'000.0;
  LoadReport report = RunAgainstLoopback(scenario, options).ValueOrDie();
  EXPECT_GT(report.checkpoints, 0u)
      << "churn runs must exercise the control-plane barrier";
  EXPECT_EQ(report.events_admitted + report.quota_refused_events,
            report.events_sent);
}

TEST(LoadGenTest, ReplicationScenarioSplitsReadsOntoQueryEndpoint) {
  ScenarioOptions so;
  so.subjects = 24;
  so.streams = 2;
  so.total_events = 600;
  so.events_per_frame = 16;
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kReplication, so).ValueOrDie();
  ASSERT_GT(scenario.queries.size(), 0u);
  ASSERT_TRUE(scenario.mutations.empty());

  SystemState initial = scenario.initial;
  RuntimeOptions runtime_options;
  runtime_options.engine = scenario.engine;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<AccessRuntime> rt,
      AccessRuntime::Open(std::move(initial), runtime_options));
  ServiceServer server(rt.get(), {});
  ASSERT_OK(server.Start());

  LoadGenOptions options;
  options.connections = 2;
  options.rate = 50'000.0;
  options.port = server.bound_port();
  // The same server stands in for the replica: what this test pins
  // down is the split itself — queries travel over dedicated
  // connections and overlap the pipelined ingest stream instead of
  // draining it. (ci.sh's replication job points query_host at a real
  // replica.)
  options.query_host = "127.0.0.1";
  options.query_port = server.bound_port();
  ASSERT_OK_AND_ASSIGN(LoadReport report, RunLoad(scenario, options));
  server.Stop();

  EXPECT_GT(report.queries_sent, 0u)
      << "the replication family must mix in reads";
  EXPECT_EQ(report.query_latency.count(), report.queries_sent);
  EXPECT_EQ(report.events_sent, scenario.total_events);
  EXPECT_EQ(report.events_admitted + report.quota_refused_events,
            report.events_sent);
  EXPECT_EQ(report.grants + report.denials, report.events_admitted);

  // A read endpoint needs both halves of its address.
  options.query_port = 0;
  EXPECT_EQ(RunLoad(scenario, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LoadGenTest, ReportHistogramsSurviveTheJsonBucketDump) {
  // ltam_load --json-out writes each report histogram as
  // (count, sum, min, max, non-zero buckets); two split runs merged
  // from their dumps must equal the one-shot aggregate, percentile for
  // percentile — the offline-merge contract.
  ScenarioOptions so;
  so.subjects = 24;
  so.streams = 2;
  so.total_events = 600;
  so.events_per_frame = 16;
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kContactSweep, so).ValueOrDie();
  LoadGenOptions options;
  options.connections = 2;
  options.rate = 50'000.0;
  options.schedule_seed = 31;
  LoadReport first = RunAgainstLoopback(scenario, options).ValueOrDie();
  options.schedule_seed = 37;
  LoadReport second = RunAgainstLoopback(scenario, options).ValueOrDie();
  ASSERT_GT(first.ingest_latency.count(), 0u);
  ASSERT_GT(second.ingest_latency.count(), 0u);

  // What a consumer of two JSON reports reconstructs...
  auto rebuild = [](const LatencyHistogram& h) {
    return LatencyHistogram::FromParts(h.count(), h.sum(), h.min(), h.max(),
                                       h.NonZeroBuckets())
        .ValueOrDie();
  };
  LatencyHistogram merged = rebuild(first.ingest_latency);
  merged.Merge(rebuild(second.ingest_latency));

  // ...equals merging the live histograms directly.
  LatencyHistogram reference = first.ingest_latency;
  reference.Merge(second.ingest_latency);
  EXPECT_EQ(reference.count(), merged.count());
  EXPECT_EQ(reference.mean(), merged.mean());
  EXPECT_EQ(reference.min(), merged.min());
  EXPECT_EQ(reference.max(), merged.max());
  EXPECT_EQ(reference.p50(), merged.p50());
  EXPECT_EQ(reference.p90(), merged.p90());
  EXPECT_EQ(reference.p99(), merged.p99());
  EXPECT_EQ(reference.p999(), merged.p999());
  EXPECT_EQ(reference.NonZeroBuckets(), merged.NonZeroBuckets());
}

TEST(LoadGenTest, OverloadObservesQuotaRefusalsNeverDeadlocks) {
  ScenarioOptions so;
  so.subjects = 48;
  so.streams = 4;
  so.total_events = 6000;
  so.events_per_frame = 32;
  LoadScenario scenario =
      GenerateLoadScenario(ScenarioFamily::kSurge, so).ValueOrDie();

  // A server with a deliberately tiny per-connection ingest quota and a
  // schedule that arrives effectively all at once: the flood must be
  // answered with kFailedPrecondition refusals (bounded queues), and
  // the run must drain to completion.
  ServerOptions server_options;
  server_options.max_connection_queued_events = 64;
  server_options.max_queued_events = 512;

  LoadGenOptions options;
  options.connections = 4;
  options.rate = 2'000'000.0;
  options.max_in_flight = 128;

  LoadReport report =
      RunAgainstLoopback(scenario, options, server_options).ValueOrDie();
  EXPECT_GT(report.quota_refused_frames, 0u)
      << "an offered rate this far above capacity must trip the quota";
  EXPECT_EQ(report.events_admitted + report.quota_refused_events,
            report.events_sent);
  EXPECT_EQ(report.events_sent, scenario.total_events);
  // The overload shows up in the open-loop signals, not as an error.
  EXPECT_GT(report.ingest_latency.count(), 0u);
}

}  // namespace
}  // namespace ltam
