// Copyright 2026 The LTAM Authors.
// The durability equivalence property: for randomized
// GenerateEventBatches workloads with interleaved Checkpoint() and
// Tick() calls, a 5-shard and a 1-shard DurableShardedSystem make the
// decisions of the reference oracle — the per-event AccessControlEngine
// fed the same stream — live and after crash recovery, and their
// post-recovery movement traces (read through MovementView), ledgers,
// and re-raised alerts match each other and the oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "query/movement_view.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/durable_sharded_system.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

/// Logs and applies one batch through the durable system's engine, the
/// way AccessRuntime drives it, folding a durability failure into the
/// result.
Result<std::vector<Decision>> EvaluateBatch(DurableShardedSystem* sys,
                                            Span<const AccessEvent> batch) {
  std::vector<Decision> decisions = sys->engine().EvaluateBatch(batch);
  LTAM_RETURN_IF_ERROR(sys->TakeBatchError());
  return decisions;
}

SystemState MakeInitialState(uint64_t seed,
                             std::vector<SubjectId>* out_subjects = nullptr) {
  SystemState state;
  state.graph = MakeGridGraph(6, 6).ValueOrDie();
  std::vector<SubjectId> ids = GenerateSubjects(&state.profiles, 24);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = 0.55;
  opt.horizon = 500;
  opt.min_len = 20;
  opt.max_len = 150;
  opt.max_entries = 3;
  GenerateAuthorizations(state.graph, ids, opt, &rng, &state.auth_db);
  if (out_subjects != nullptr) *out_subjects = ids;
  return state;
}

using AlertKey = std::tuple<Chronon, SubjectId, LocationId, int, std::string>;

std::multiset<AlertKey> AlertMultiset(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& a : alerts) {
    out.insert(std::make_tuple(a.time, a.subject, a.location,
                               static_cast<int>(a.type), a.detail));
  }
  return out;
}

/// Per-subject movement traces through the read side every runtime
/// serves queries from (each subject's own stays in time order;
/// cross-subject interleaving is shard-dependent and not compared).
std::map<SubjectId, std::vector<std::string>> TracesOf(
    const MovementView& view, const std::vector<SubjectId>& subjects) {
  std::map<SubjectId, std::vector<std::string>> out;
  for (SubjectId s : subjects) {
    for (const Stay& stay : view.StaysOf(s)) {
      out[s].push_back(std::to_string(stay.location) + "@" +
                       std::to_string(stay.enter_time) + "-" +
                       std::to_string(stay.exit_time));
    }
  }
  return out;
}

std::map<SubjectId, std::vector<std::string>> TracesOf(
    const DurableShardedSystem& sys, const std::vector<SubjectId>& subjects) {
  std::vector<const MovementDatabase*> shards;
  for (uint32_t k = 0; k < sys.num_shards(); ++k) {
    shards.push_back(&sys.shard_movements(k));
  }
  return TracesOf(ShardedMovementView(std::move(shards)), subjects);
}

/// Authorization ledger usage counts, indexed by AuthId.
std::vector<uint32_t> LedgerOf(const AuthorizationDatabase& db) {
  std::vector<uint32_t> out;
  for (AuthId id = 0; id < db.size(); ++id) {
    out.push_back(db.record(id).entries_used);
  }
  return out;
}

class DurableEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/ltam_deq_" +
            std::to_string(GetParam());
    fs::remove_all(root_);
    fs::create_directories(root_ + "/five");
    fs::create_directories(root_ + "/one");
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_P(DurableEquivalenceTest, ShardCountsMatchOracleAcrossCheckpoints) {
  const uint64_t seed = GetParam();
  std::vector<SubjectId> subjects;
  SystemState gen_state = MakeInitialState(seed, &subjects);

  Rng rng(seed * 7919 + 1);
  BatchWorkloadOptions batch_opt;
  batch_opt.batch_size = 120;
  batch_opt.exit_fraction = 0.15;
  batch_opt.observe_fraction = 0.15;
  auto batches = GenerateEventBatches(gen_state.graph, subjects,
                                      /*total_events=*/900, batch_opt, &rng);

  // The oracle never crashes: it is the live truth both recoveries must
  // reproduce.
  SystemState oracle_state = MakeInitialState(seed);
  AccessControlEngine oracle(&oracle_state.graph, &oracle_state.auth_db,
                             &oracle_state.movements, &oracle_state.profiles);
  DurableShardedOptions five_opt;
  five_opt.num_shards = 5;
  DurableShardedOptions one_opt;
  one_opt.num_shards = 1;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> five,
      DurableShardedSystem::Open(root_ + "/five", MakeInitialState(seed),
                                 five_opt));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> one,
      DurableShardedSystem::Open(root_ + "/one", MakeInitialState(seed),
                                 one_opt));

  // Feeds one batch to all three and checks every decision against the
  // oracle's.
  auto feed = [&](const std::vector<AccessEvent>& batch, const char* phase) {
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> five_decisions,
                         EvaluateBatch(five.get(), batch));
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> one_decisions,
                         EvaluateBatch(one.get(), batch));
    ASSERT_EQ(five_decisions.size(), batch.size());
    ASSERT_EQ(one_decisions.size(), batch.size());
    for (size_t j = 0; j < batch.size(); ++j) {
      const std::string want = ApplyAccessEvent(&oracle, batch[j]).ToString();
      EXPECT_EQ(want, five_decisions[j].ToString()) << phase << ", event " << j;
      EXPECT_EQ(want, one_decisions[j].ToString()) << phase << ", event " << j;
    }
  };
  auto tick = [&](Chronon t) {
    ASSERT_OK(five->Tick(t));
    ASSERT_OK(one->Tick(t));
    oracle.Tick(t);
  };

  // Live equivalence, with checkpoints and ticks interleaved at the same
  // stream positions on every side.
  Chronon clock = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    for (const AccessEvent& e : batches[i]) {
      clock = std::max(clock, e.time);
    }
    feed(batches[i], "live");
    if (i % 2 == 1) tick(clock);
    if (i % 3 == 2) {
      ASSERT_OK(five->Checkpoint());
      ASSERT_OK(one->Checkpoint());
    }
  }

  // Live alert equivalence (every buffer drained up to here).
  const std::multiset<AlertKey> oracle_alerts = AlertMultiset(oracle.alerts());
  oracle.ClearAlerts();
  EXPECT_EQ(AlertMultiset(five->DrainAlerts()), oracle_alerts);
  EXPECT_EQ(AlertMultiset(one->DrainAlerts()), oracle_alerts);

  // "Crash" both durable runtimes (no final checkpoint) and recover.
  five.reset();
  one.reset();
  ASSERT_OK_AND_ASSIGN(five,
                       DurableShardedSystem::Open(
                           root_ + "/five", MakeInitialState(seed), five_opt));
  ASSERT_OK_AND_ASSIGN(one,
                       DurableShardedSystem::Open(
                           root_ + "/one", MakeInitialState(seed), one_opt));
  EXPECT_EQ(5u, five->num_shards());
  EXPECT_EQ(1u, one->num_shards());

  // Post-recovery state equivalence: per-subject movement traces...
  const auto oracle_traces =
      TracesOf(MovementDatabaseView(&oracle_state.movements), subjects);
  EXPECT_EQ(TracesOf(*five, subjects), oracle_traces);
  EXPECT_EQ(TracesOf(*one, subjects), oracle_traces);
  // ...the shared ledger...
  EXPECT_EQ(LedgerOf(five->base().auth_db), LedgerOf(oracle_state.auth_db));
  EXPECT_EQ(LedgerOf(one->base().auth_db), LedgerOf(oracle_state.auth_db));
  // ...and the alerts the two recoveries re-raised replaying their
  // (identically positioned) tails.
  EXPECT_EQ(AlertMultiset(five->DrainAlerts()),
            AlertMultiset(one->DrainAlerts()));

  // The recovered runtimes stay equivalent to the oracle on fresh
  // traffic.
  Rng probe_rng(seed * 104729 + 3);
  auto probe = GenerateEventBatches(gen_state.graph, subjects, 200, batch_opt,
                                    &probe_rng);
  for (auto& batch : probe) {
    for (AccessEvent& e : batch) e.time += 100000;
    feed(batch, "post-recovery");
  }
  tick(200001);
  const std::multiset<AlertKey> probe_alerts = AlertMultiset(oracle.alerts());
  EXPECT_EQ(AlertMultiset(five->DrainAlerts()), probe_alerts);
  EXPECT_EQ(AlertMultiset(one->DrainAlerts()), probe_alerts);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DurableEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace ltam
