// Copyright 2026 The LTAM Authors.
// Self-checks of the benchmark's checker: a wrong answer must fail a
// run, and a failed operation must count as a miss in every percentile.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check.h"
#include "stats.h"
#include "workload.h"

namespace ltam::perfbench {
namespace {

LoadScenario SmallScenario() {
  ScenarioOptions options;
  options.streams = 2;
  options.subjects = 24;
  options.total_events = 4096;
  options.seed = 11;
  Result<LoadScenario> s =
      GenerateLoadScenario(ScenarioFamily::kContactSweep, options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).ValueOrDie();
}

AckedFrames AllAcked(const LoadScenario& s) {
  AckedFrames acked;
  for (const auto& stream : s.streams) acked.emplace_back(stream.size(), 1);
  return acked;
}

/// Per-frame decisions of an in-memory replay of `s` in canonical order.
std::vector<std::vector<std::vector<Decision>>> ReplayDecisions(
    const LoadScenario& s) {
  RuntimeOptions options;
  options.engine = s.engine;
  Result<std::unique_ptr<AccessRuntime>> rt =
      AccessRuntime::Open(s.initial, options);
  EXPECT_TRUE(rt.ok());
  std::vector<std::vector<std::vector<Decision>>> out(s.streams.size());
  for (size_t c = 0; c < s.streams.size(); ++c) out[c].resize(s.streams[c].size());
  size_t rounds = 0;
  for (const auto& stream : s.streams) rounds = std::max(rounds, stream.size());
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < s.streams.size(); ++c) {
      if (r >= s.streams[c].size()) continue;
      Result<BatchResult> b = (*rt)->ApplyBatch(s.streams[c][r]);
      EXPECT_TRUE(b.ok());
      out[c][r] = b->decisions;
    }
  }
  return out;
}

FrameDigests Digests(
    const std::vector<std::vector<std::vector<Decision>>>& decisions) {
  FrameDigests d(decisions.size());
  for (size_t c = 0; c < decisions.size(); ++c) {
    for (const auto& frame : decisions[c]) {
      d[c].push_back(DigestDecisions(kDigestSeed, frame));
    }
  }
  return d;
}

TEST(QuantileWithMisses, InterpolatesOrderStatistics) {
  std::vector<double> ok;
  for (int i = 1; i <= 100; ++i) ok.push_back(i);
  EXPECT_DOUBLE_EQ(QuantileWithMisses(&ok, 0, 0.5), 50.5);
  EXPECT_NEAR(QuantileWithMisses(&ok, 0, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(QuantileWithMisses(&ok, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileWithMisses(&ok, 0, 1.0), 100.0);
}

TEST(QuantileWithMisses, FailedOperationsAreMisses) {
  std::vector<double> ok;
  for (int i = 1; i <= 98; ++i) ok.push_back(i);
  // Two failures out of 100: they are the two slowest operations.
  EXPECT_TRUE(std::isinf(QuantileWithMisses(&ok, 2, 0.99)));
  EXPECT_DOUBLE_EQ(QuantileWithMisses(&ok, 2, 0.5), 50.5);
  // Failures shift the median up even though no OK sample changed.
  std::vector<double> fast(50, 1.0);
  EXPECT_TRUE(std::isinf(QuantileWithMisses(&fast, 50, 0.5)));
  std::vector<double> half(51, 1.0);
  EXPECT_DOUBLE_EQ(QuantileWithMisses(&half, 49, 0.5), 1.0);
  std::vector<double> none;
  EXPECT_TRUE(std::isinf(QuantileWithMisses(&none, 3, 0.01)));
  EXPECT_TRUE(std::isnan(QuantileWithMisses(&none, 0, 0.5)));
}

TEST(CheckDigests, MatchingReplayPasses) {
  const LoadScenario s = SmallScenario();
  const AckedFrames acked = AllAcked(s);
  Result<Reference> one = ReplayReference(s, acked, 1);
  Result<Reference> two = ReplayReference(s, acked, 2);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_TRUE(CheckDigests(acked, two->digests, one->digests).ok());
  EXPECT_TRUE(CheckDigests(acked, Digests(ReplayDecisions(s)), one->digests).ok());
}

TEST(CheckDigests, OneFlippedDecisionFailsTheRun) {
  const LoadScenario s = SmallScenario();
  const AckedFrames acked = AllAcked(s);
  Result<Reference> ref = ReplayReference(s, acked, 1);
  ASSERT_TRUE(ref.ok());
  auto decisions = ReplayDecisions(s);
  decisions[1][7][3].granted = !decisions[1][7][3].granted;
  const Status st = CheckDigests(acked, ref->digests, Digests(decisions));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("connection 1 frame 7"), std::string::npos)
      << st.ToString();
  // Unacknowledged frames are not compared.
  AckedFrames partial = acked;
  partial[1][7] = 0;
  EXPECT_TRUE(CheckDigests(partial, ref->digests, Digests(decisions)).ok());
}

TEST(CheckDigests, OneDroppedAcknowledgedEventFailsTheRun) {
  const LoadScenario s = SmallScenario();
  const AckedFrames acked = AllAcked(s);
  Result<Reference> served = ReplayReference(s, acked, 1);
  ASSERT_TRUE(served.ok());
  LoadScenario dropped = s;
  dropped.streams[0][4].erase(dropped.streams[0][4].begin() + 2);
  Result<Reference> ref = ReplayReference(dropped, acked, 1);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->events + 1, served->events);
  EXPECT_FALSE(CheckDigests(acked, served->digests, ref->digests).ok());
}

TEST(CheckSweep, RecoveryThatLostTheAcknowledgedTailFails) {
  const LoadScenario s = SmallScenario();
  const AckedFrames acked = AllAcked(s);
  Result<Reference> ref = ReplayReference(s, acked, 1);
  ASSERT_TRUE(ref.ok());
  const std::vector<PoolQuery> tail = TailProbe(s, acked, 0);
  ASSERT_EQ(tail.size(), s.subjects.size());
  const std::vector<std::string> want = SweepRuntime(*ref->runtime, tail);

  // A byte-identical state (2 shards) passes.
  Result<Reference> sharded = ReplayReference(s, acked, 2);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(
      CheckSweep(tail, SweepRuntime(*sharded->runtime, tail), want, "tail").ok());

  // A state missing the last acknowledged frame of each stream fails.
  AckedFrames lost = acked;
  for (auto& stream : lost) stream.back() = 0;
  Result<Reference> short_state = ReplayReference(s, lost, 1);
  ASSERT_TRUE(short_state.ok());
  EXPECT_FALSE(
      CheckSweep(tail, SweepRuntime(*short_state->runtime, tail), want, "tail")
          .ok());
}

TEST(CheckSweep, QueryPoolAnswersMustMatchByteForByte) {
  const LoadScenario s = SmallScenario();
  const AckedFrames acked = AllAcked(s);
  Result<Reference> ref = ReplayReference(s, acked, 1);
  ASSERT_TRUE(ref.ok());
  const std::vector<PoolQuery> pool =
      MakeQueryPool(s, 60, 5, 200, [](size_t) { return Chronon{600}; });
  const std::vector<std::string> want = SweepRuntime(*ref->runtime, pool);
  std::vector<std::string> served = want;
  EXPECT_TRUE(CheckSweep(pool, served, want, "sweep").ok());
  served[13] += "x";
  EXPECT_FALSE(CheckSweep(pool, served, want, "sweep").ok());
  served.pop_back();
  EXPECT_FALSE(CheckSweep(pool, served, want, "sweep").ok());
  // Every statement of the pool parses and runs.
  for (const std::string& answer : want) {
    EXPECT_EQ(answer.rfind("error:", 0), std::string::npos) << answer;
  }
}

}  // namespace
}  // namespace ltam::perfbench
