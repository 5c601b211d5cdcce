// Copyright 2026 The LTAM Authors.
// The sharded batch pipeline: equivalence with the sequential engine on
// both sides of the fan-out threshold, the threshold's thread placement,
// deterministic alert merging, and a multi-thread stress case (run this
// binary under -fsanitize=thread via ci.sh to certify the shard
// discipline).

#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/access_control_engine.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

/// A world with per-subject random authorizations over a grid.
struct World {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
};

World MakeWorld(uint32_t side, uint32_t subject_count, uint64_t seed,
                double coverage = 0.6) {
  World w;
  w.graph = MakeGridGraph(side, side).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, subject_count);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = coverage;
  opt.horizon = 400;
  opt.min_len = 20;
  opt.max_len = 120;
  opt.max_entries = 3;  // Exercise the ledger/exhaustion path.
  GenerateAuthorizations(w.graph, w.subjects, opt, &rng, &w.auth_db);
  return w;
}

std::vector<std::vector<AccessEvent>> MakeBatches(const World& w,
                                                  size_t total_events,
                                                  size_t batch_size,
                                                  uint64_t seed) {
  Rng rng(seed);
  BatchWorkloadOptions opt;
  opt.batch_size = batch_size;
  opt.exit_fraction = 0.15;
  opt.observe_fraction = 0.15;
  return GenerateEventBatches(w.graph, w.subjects, total_events, opt, &rng);
}

std::string DecisionKey(const Decision& d) {
  return d.ToString();
}

/// Replays the batches sequentially through one AccessControlEngine (the
/// reference implementation; see sim/workload.h).
SequentialReplay RunSequential(World* w,
                               const std::vector<std::vector<AccessEvent>>& bs,
                               const EngineOptions& options) {
  return ReplayBatchesSequential(w->graph, &w->auth_db, w->profiles, bs,
                                 options);
}

/// The headline equivalence property (acceptance criterion): for random
/// workload batches, the sharded engine's decisions are identical to the
/// sequential engine's, event by event — >= 1000 events, >= 4 shards —
/// whether a batch runs every slice on the caller (32 events, below the
/// fan-out threshold) or fans out to the workers (2048).
TEST(ShardedEngineTest, DecisionsMatchSequentialEngine) {
  for (size_t batch_size : {32u, 256u, 2048u}) {
    for (uint32_t shards : {4u, 7u}) {
      SCOPED_TRACE("batch size " + std::to_string(batch_size));
      // Two independent worlds so the sequential and sharded runs see
      // identical starting ledgers (the run itself mutates entries_used).
      World sequential_world = MakeWorld(8, 48, /*seed=*/11);
      World sharded_world = MakeWorld(8, 48, /*seed=*/11);
      auto batches = MakeBatches(
          sequential_world,
          /*total_events=*/std::max<size_t>(1500, 5 * batch_size),
          batch_size, /*seed=*/22);
      ASSERT_GE(batches.size(), 5u);

      SequentialReplay reference =
          RunSequential(&sequential_world, batches, EngineOptions{});

      ShardedEngineOptions opt;
      opt.num_shards = shards;
      ShardedDecisionEngine engine(&sharded_world.graph,
                                   &sharded_world.auth_db,
                                   &sharded_world.profiles, opt);
      std::vector<Decision> sharded;
      for (const auto& batch : batches) {
        std::vector<Decision> d = engine.EvaluateBatch(batch);
        sharded.insert(sharded.end(), d.begin(), d.end());
      }

      ASSERT_EQ(sharded.size(), reference.decisions.size());
      for (size_t i = 0; i < sharded.size(); ++i) {
        EXPECT_EQ(DecisionKey(sharded[i]),
                  DecisionKey(reference.decisions[i]))
            << "event " << i << " with " << shards << " shards";
      }
      size_t entry_events = 0;
      for (const auto& batch : batches) {
        for (const AccessEvent& e : batch) {
          if (e.kind == AccessEventKind::kRequestEntry) ++entry_events;
        }
      }
      EXPECT_EQ(engine.requests_processed(), entry_events);
    }
  }
}

/// The fan-out rule: a batch below the threshold runs every slice on the
/// calling thread, and a large one runs shard k >= 1 on its worker.
TEST(ShardedEngineTest, SmallBatchRunsOnTheCallingThread) {
  World w = MakeWorld(8, 64, /*seed=*/131);
  ShardedEngineOptions opt;
  opt.num_shards = 4;
  ShardedDecisionEngine engine(&w.graph, &w.auth_db, &w.profiles, opt);
  std::mutex mu;
  std::vector<std::set<std::thread::id>> ran_on(opt.num_shards);
  ShardHooks hooks;
  hooks.before_apply = [&mu, &ran_on](uint32_t shard, const AccessEvent&) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on[shard].insert(std::this_thread::get_id());
  };
  engine.SetShardHooks(std::move(hooks));
  const std::thread::id caller = std::this_thread::get_id();
  // One stream, so the large batch continues the small one in time.
  auto stream = MakeBatches(w, 32 + 2048, 32 + 2048, /*seed=*/141);
  ASSERT_EQ(1u, stream.size());
  const std::vector<AccessEvent>& events = stream[0];

  engine.EvaluateBatch(Span<const AccessEvent>(events.data(), 32));
  size_t shards_used = 0;
  for (uint32_t k = 0; k < opt.num_shards; ++k) {
    if (ran_on[k].empty()) continue;
    ++shards_used;
    EXPECT_EQ(std::set<std::thread::id>{caller}, ran_on[k])
        << "shard " << k << " of a 32-event batch left the caller";
  }
  EXPECT_GE(shards_used, 2u) << "the small batch should span shards";

  for (std::set<std::thread::id>& ids : ran_on) ids.clear();
  engine.EvaluateBatch(Span<const AccessEvent>(events.data() + 32, 2048));
  EXPECT_EQ(std::set<std::thread::id>{caller}, ran_on[0]);
  for (uint32_t k = 1; k < opt.num_shards; ++k) {
    ASSERT_EQ(1u, ran_on[k].size()) << "shard " << k;
    EXPECT_NE(caller, *ran_on[k].begin())
        << "shard " << k << " of a 2048-event batch ran on the caller";
  }
}

/// Alerts carry the same multiset of (time, subject, location, type)
/// regardless of sharding; DrainAlerts orders them deterministically.
TEST(ShardedEngineTest, AlertsMatchSequentialEngineUpToOrder) {
  World sequential_world = MakeWorld(6, 32, /*seed=*/33, /*coverage=*/0.4);
  World sharded_world = MakeWorld(6, 32, /*seed=*/33, /*coverage=*/0.4);
  auto batches = MakeBatches(sequential_world, 1200, 200, /*seed=*/44);

  SequentialReplay reference =
      RunSequential(&sequential_world, batches, EngineOptions{});

  ShardedEngineOptions opt;
  opt.num_shards = 5;
  ShardedDecisionEngine engine(&sharded_world.graph, &sharded_world.auth_db,
                               &sharded_world.profiles, opt);
  for (const auto& batch : batches) engine.EvaluateBatch(batch);
  std::vector<Alert> sharded_alerts = engine.DrainAlerts();

  auto key = [](const Alert& a) {
    return std::make_tuple(a.time, a.subject, a.location,
                           static_cast<int>(a.type), a.detail);
  };
  std::multiset<std::tuple<Chronon, SubjectId, LocationId, int, std::string>>
      expected, actual;
  for (const Alert& a : reference.alerts) expected.insert(key(a));
  for (const Alert& a : sharded_alerts) actual.insert(key(a));
  EXPECT_EQ(actual, expected);

  // Drained order is sorted by (time, subject, location, type).
  for (size_t i = 1; i < sharded_alerts.size(); ++i) {
    EXPECT_LE(key(sharded_alerts[i - 1]), key(sharded_alerts[i]));
  }
  // Draining clears the buffers.
  EXPECT_TRUE(engine.DrainAlerts().empty());
}

/// Every subject's events land on exactly one shard, and the shard's
/// movement view tracks exactly its own subjects.
TEST(ShardedEngineTest, ShardPartitionIsStableAndExhaustive) {
  World w = MakeWorld(4, 64, /*seed=*/55);
  ShardedEngineOptions opt;
  opt.num_shards = 8;
  ShardedDecisionEngine engine(&w.graph, &w.auth_db, &w.profiles, opt);
  ASSERT_EQ(engine.num_shards(), 8u);

  for (SubjectId s : w.subjects) {
    uint32_t shard = engine.ShardOf(s);
    ASSERT_LT(shard, engine.num_shards());
    EXPECT_EQ(engine.ShardOf(s), shard) << "ShardOf must be stable";
  }

  auto batches = MakeBatches(w, 800, 160, /*seed=*/66);
  for (const auto& batch : batches) engine.EvaluateBatch(batch);

  // Each shard's movement view only ever saw subjects mapping to it.
  for (uint32_t k = 0; k < engine.num_shards(); ++k) {
    for (const MovementEvent& ev : engine.shard_movements(k).history()) {
      EXPECT_EQ(engine.ShardOf(ev.subject), k);
    }
  }
}

/// EvaluateBatch returns one decision per event, in input order, and an
/// empty batch is a no-op.
TEST(ShardedEngineTest, BatchShapeAndEmptyBatch) {
  World w = MakeWorld(4, 8, /*seed=*/77);
  ShardedDecisionEngine engine(&w.graph, &w.auth_db, &w.profiles);

  EXPECT_TRUE(engine.EvaluateBatch({}).empty());
  EXPECT_EQ(engine.batches_evaluated(), 1u);

  // An exit for a subject that never entered is rejected, with the
  // dedicated reason (not conflated with unknown-subject).
  std::vector<Decision> exit_only =
      engine.EvaluateBatch({AccessEvent::Exit(1, w.subjects[0])});
  ASSERT_EQ(exit_only.size(), 1u);
  EXPECT_FALSE(exit_only[0].granted);
  EXPECT_EQ(exit_only[0].reason, DenyReason::kExitRejected);

  auto batches = MakeBatches(w, 100, 100, /*seed=*/88);
  ASSERT_EQ(batches.size(), 1u);
  std::vector<Decision> d = engine.EvaluateBatch(batches[0]);
  EXPECT_EQ(d.size(), batches[0].size());
  EXPECT_EQ(engine.requests_processed(),
            static_cast<size_t>(
                std::count_if(batches[0].begin(), batches[0].end(),
                              [](const AccessEvent& e) {
                                return e.kind == AccessEventKind::kRequestEntry;
                              })));
}

/// num_shards = 0 is clamped to one shard; single-shard results equal the
/// sequential engine trivially.
TEST(ShardedEngineTest, SingleShardDegeneratesToSequential) {
  World sequential_world = MakeWorld(5, 16, /*seed=*/99);
  World sharded_world = MakeWorld(5, 16, /*seed=*/99);
  auto batches = MakeBatches(sequential_world, 400, 80, /*seed=*/101);

  SequentialReplay reference =
      RunSequential(&sequential_world, batches, EngineOptions{});

  ShardedEngineOptions opt;
  opt.num_shards = 0;  // Clamped to 1.
  ShardedDecisionEngine engine(&sharded_world.graph, &sharded_world.auth_db,
                               &sharded_world.profiles, opt);
  EXPECT_EQ(engine.num_shards(), 1u);
  std::vector<Decision> sharded;
  for (const auto& batch : batches) {
    std::vector<Decision> d = engine.EvaluateBatch(batch);
    sharded.insert(sharded.end(), d.begin(), d.end());
  }
  ASSERT_EQ(sharded.size(), reference.decisions.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(DecisionKey(sharded[i]), DecisionKey(reference.decisions[i]));
  }
}

/// Multi-thread stress: many shards, many batches, heavy subject count.
/// Safe under -fsanitize=thread — the per-shard movement views, the
/// shared authorization lookups, and the per-record ledger writes must
/// never race.
TEST(ShardedEngineTest, ThreadStress) {
  World w = MakeWorld(8, 128, /*seed=*/123);
  ShardedEngineOptions opt;
  opt.num_shards = 8;
  ShardedDecisionEngine engine(&w.graph, &w.auth_db, &w.profiles, opt);

  auto batches = MakeBatches(w, 4000, 500, /*seed=*/456);
  size_t total = 0;
  for (const auto& batch : batches) {
    total += engine.EvaluateBatch(batch).size();
  }
  EXPECT_EQ(total, 4000u);
  EXPECT_EQ(engine.batches_evaluated(), batches.size());

  // Reuse after a mutation between batches: revoke one subject's records
  // and keep going — decisions must still complete (stale grants are
  // auth_database_test's concern; here we only certify liveness under
  // threads).
  for (AuthId id : w.auth_db.ForSubject(w.subjects[0])) {
    ASSERT_OK(w.auth_db.Revoke(id));
  }
  auto more = MakeBatches(w, 1000, 250, /*seed=*/789);
  for (const auto& batch : more) engine.EvaluateBatch(batch);
  EXPECT_EQ(engine.batches_evaluated(), batches.size() + more.size());
}

}  // namespace
}  // namespace ltam
