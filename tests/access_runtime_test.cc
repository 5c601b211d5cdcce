// Copyright 2026 The LTAM Authors.
// The AccessRuntime facade: the same event stream through every
// RuntimeOptions configuration (1/N shards x in-memory/durable x sync
// mode) must yield byte-identical decisions, equal alert sets, and equal
// query answers through the MovementView to the reference oracle — the
// per-event AccessControlEngine fed the stream outside the runtime —
// plus the facade-only contracts: the enforced mutation window,
// BatchResult draining, shard-count override reporting, the refusal of
// the removed sequential directory layout, position-fix routing, the
// in-memory answers to the durable-only calls, a restart that keeps
// rule-derived entries spent, a second restart that keeps the log tail
// the first one recovered, at most one checkpoint per boot, and
// replication positions that name only records appended after Open.

#include "runtime/access_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "query/query_language.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/event_log.h"
#include "storage/policy_script.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

/// The line `e`'s shard log holds for it (no newline), as shipped.
std::string WalLine(const AccessEvent& e) {
  std::string line;
  AppendEventLine(e, &line);
  line.pop_back();
  return line;
}

struct World {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
};

World MakeWorld(uint64_t seed, uint32_t subject_count = 24) {
  World w;
  w.graph = MakeGridGraph(5, 5).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, subject_count);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = 0.6;
  opt.horizon = 400;
  opt.min_len = 20;
  opt.max_len = 120;
  opt.max_entries = 3;  // Exercise the ledger/exhaustion path.
  GenerateAuthorizations(w.graph, w.subjects, opt, &rng, &w.auth_db);
  return w;
}

SystemState StateOf(const World& w) {
  SystemState state;
  state.graph = w.graph;
  state.profiles = w.profiles;
  state.auth_db = w.auth_db;
  return state;
}

std::vector<std::vector<AccessEvent>> MakeBatches(const World& w,
                                                  size_t total_events,
                                                  uint64_t seed) {
  Rng rng(seed);
  BatchWorkloadOptions opt;
  opt.batch_size = 96;
  opt.exit_fraction = 0.15;
  opt.observe_fraction = 0.15;
  return GenerateEventBatches(w.graph, w.subjects, total_events, opt, &rng);
}

std::string DecisionString(const Decision& d) { return d.ToString(); }

using AlertKey = std::tuple<Chronon, SubjectId, LocationId, int, std::string>;

std::multiset<AlertKey> AlertMultiset(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& a : alerts) {
    out.insert(std::make_tuple(a.time, a.subject, a.location,
                               static_cast<int>(a.type), a.detail));
  }
  return out;
}

using StayKey = std::tuple<SubjectId, LocationId, Chronon, Chronon>;

std::vector<StayKey> StayKeys(const std::vector<Stay>& stays) {
  std::vector<StayKey> out;
  out.reserve(stays.size());
  for (const Stay& s : stays) {
    out.push_back(
        std::make_tuple(s.subject, s.location, s.enter_time, s.exit_time));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Everything one configuration produced, in comparable form.
struct RunOutcome {
  std::vector<std::string> decisions;
  std::multiset<AlertKey> alerts;
  /// Query answers through the MovementView, keyed by a description.
  std::map<std::string, std::string> queries;
  size_t granted = 0;
};

void InsertAlerts(const std::vector<Alert>& alerts,
                  std::multiset<AlertKey>* out) {
  for (const Alert& a : alerts) {
    out->insert(std::make_tuple(a.time, a.subject, a.location,
                                static_cast<int>(a.type), a.detail));
  }
}

/// Per-subject facts and location scans through a movement view, plus
/// WhereWas through the query engine that consumes it.
void RecordQueries(const World& w, const MovementView& view,
                   const QueryEngine& query, RunOutcome* out) {
  for (SubjectId s : w.subjects) {
    out->queries["cur/" + std::to_string(s)] =
        std::to_string(view.CurrentLocation(s));
    for (Chronon t : {50, 150, 250, 350}) {
      out->queries["at/" + std::to_string(s) + "/" + std::to_string(t)] =
          std::to_string(view.LocationAt(s, t));
    }
    std::string stays;
    for (const StayKey& key : StayKeys(view.StaysOf(s))) {
      stays += std::to_string(std::get<1>(key)) + ":" +
               std::to_string(std::get<2>(key)) + "-" +
               std::to_string(std::get<3>(key)) + ";";
    }
    out->queries["stays/" + std::to_string(s)] = stays;
    std::string contacts;
    for (const MovementDatabase::Contact& c :
         view.ContactsOf(s, TimeInterval(0, 400), 1)) {
      contacts += std::to_string(c.other) + "@" + std::to_string(c.location) +
                  ":" + std::to_string(c.overlap_start) + "-" +
                  std::to_string(c.overlap_end) + ";";
    }
    out->queries["contacts/" + std::to_string(s)] = contacts;
    out->queries["qe-where/" + std::to_string(s)] =
        std::to_string(query.WhereWas(s, 200));
  }
  for (LocationId l : w.graph.Primitives()) {
    for (Chronon t : {100, 300}) {
      std::string occ;
      for (SubjectId s : view.OccupantsAt(l, t)) {
        occ += std::to_string(s) + ",";
      }
      out->queries["occ/" + std::to_string(l) + "/" + std::to_string(t)] = occ;
    }
    std::string stays;
    for (const StayKey& key : StayKeys(view.StaysIn(l))) {
      stays += std::to_string(std::get<0>(key)) + ":" +
               std::to_string(std::get<2>(key)) + "-" +
               std::to_string(std::get<3>(key)) + ";";
    }
    out->queries["staysin/" + std::to_string(l)] = stays;
  }
  out->queries["tracked"] = std::to_string(view.tracked_subjects());
  out->queries["history"] = std::to_string(view.history_size());
}

/// The reference oracle: the paper's per-event Figure-3 engine, fed the
/// stream event by event outside the runtime, then ticked and queried
/// exactly like RunConfig does.
RunOutcome RunOracle(const World& w,
                     const std::vector<std::vector<AccessEvent>>& batches,
                     const EngineOptions& engine_options = {}) {
  RunOutcome out;
  SystemState state = StateOf(w);
  AccessControlEngine oracle(&state.graph, &state.auth_db, &state.movements,
                             &state.profiles, engine_options);
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) {
      out.decisions.push_back(DecisionString(ApplyAccessEvent(&oracle, e)));
    }
  }
  oracle.Tick(500);
  InsertAlerts(oracle.alerts(), &out.alerts);
  out.granted = oracle.requests_granted();
  MovementDatabaseView view(&state.movements);
  QueryEngine query(&state.graph, &state.auth_db, &view, &state.profiles);
  RecordQueries(w, view, query, &out);
  return out;
}

RunOutcome RunConfig(const World& w,
                     const std::vector<std::vector<AccessEvent>>& batches,
                     RuntimeOptions options) {
  RunOutcome out;
  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(StateOf(w), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  std::unique_ptr<AccessRuntime> rt = std::move(opened).ValueOrDie();

  for (const auto& batch : batches) {
    Result<BatchResult> r = rt->ApplyBatch(batch);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    EXPECT_OK(r->durability);
    for (const Decision& d : r->decisions) {
      out.decisions.push_back(DecisionString(d));
    }
    InsertAlerts(r->alerts, &out.alerts);
  }
  EXPECT_OK(rt->Tick(500));
  InsertAlerts(rt->DrainAlerts(), &out.alerts);
  out.granted = rt->Stats().requests_granted;
  RecordQueries(w, rt->movements(), rt->query(), &out);
  return out;
}

void ExpectSameOutcome(const RunOutcome& want, const RunOutcome& got) {
  ASSERT_EQ(want.decisions.size(), got.decisions.size());
  for (size_t i = 0; i < want.decisions.size(); ++i) {
    ASSERT_EQ(want.decisions[i], got.decisions[i])
        << "decision " << i << " diverged";
  }
  EXPECT_EQ(want.granted, got.granted);
  EXPECT_TRUE(want.alerts == got.alerts)
      << "alert sets diverged (" << want.alerts.size() << " vs "
      << got.alerts.size() << ")";
  ASSERT_EQ(want.queries.size(), got.queries.size());
  for (const auto& [key, value] : want.queries) {
    auto it = got.queries.find(key);
    ASSERT_TRUE(it != got.queries.end()) << key;
    EXPECT_EQ(value, it->second) << "query '" << key << "' diverged";
  }
}

class AccessRuntimeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/ltam_facade_" +
            std::to_string(GetParam());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// A fresh durable directory under the fixture root.
  std::string Dir(const std::string& name) {
    const std::string dir = root_ + "/" + name;
    fs::create_directories(dir);
    return dir;
  }

  std::string root_;
};

TEST_P(AccessRuntimeEquivalenceTest, EveryConfigurationMatchesOracle) {
  const uint64_t seed = GetParam();
  World w = MakeWorld(seed);
  std::vector<std::vector<AccessEvent>> batches =
      MakeBatches(w, /*total_events=*/1500, seed + 7);

  RunOutcome oracle = RunOracle(w, batches);
  ASSERT_FALSE(oracle.decisions.empty());
  struct Config {
    std::string name;
    RuntimeOptions options;
  };
  std::vector<Config> configs;
  for (uint32_t shards : {1u, 3u}) {
    const std::string tag = std::to_string(shards) + "-shard";
    RuntimeOptions memory;
    memory.num_shards = shards;
    configs.push_back({tag + "-memory", memory});
    // The write-ahead log must be invisible to decisions, alerts, and
    // queries — durability is its only difference.
    RuntimeOptions durable = memory;
    durable.durable_dir = Dir(tag + "-durable");
    configs.push_back({tag + "-durable", durable});
  }
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    ExpectSameOutcome(oracle, RunConfig(w, batches, config.options));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessRuntimeEquivalenceTest,
                         ::testing::Values(1ull, 2026ull, 424242ull));

TEST(AccessRuntimeTest, EngineOptionsReachEveryConfiguration) {
  // Non-default engine knobs must reach every shard count, in memory
  // and durable — and must actually change behavior relative to the
  // defaults.
  World w = MakeWorld(61);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 800, 67);
  std::string root = ::testing::TempDir() + "/ltam_facade_engopts";
  fs::remove_all(root);

  EngineOptions open_doors;
  open_doors.enforce_adjacency = false;
  open_doors.alert_on_denial = false;

  RunOutcome oracle = RunOracle(w, batches, open_doors);
  for (uint32_t shards : {1u, 3u}) {
    for (bool durable : {false, true}) {
      SCOPED_TRACE(std::to_string(shards) + (durable ? " durable" : ""));
      RuntimeOptions options;
      options.num_shards = shards;
      options.engine = open_doors;
      if (durable) {
        options.durable_dir = root + "/" + std::to_string(shards);
        fs::create_directories(*options.durable_dir);
      }
      ASSERT_EQ(oracle.decisions, RunConfig(w, batches, options).decisions);
    }
  }
  // Sanity: the knobs changed something vs the defaults.
  EXPECT_NE(RunOracle(w, batches).decisions, oracle.decisions);
  fs::remove_all(root);
}

TEST(AccessRuntimeTest, PerEventApplyMatchesBatch) {
  World w = MakeWorld(11);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 400, 13);

  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    RuntimeOptions options;
    options.num_shards = shards;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> batched,
                         AccessRuntime::Open(StateOf(w), options));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> per_event,
                         AccessRuntime::Open(StateOf(w), options));
    for (const auto& batch : batches) {
      ASSERT_OK_AND_ASSIGN(BatchResult br, batched->ApplyBatch(batch));
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_OK_AND_ASSIGN(Decision d, per_event->Apply(batch[i]));
        EXPECT_EQ(br.decisions[i].ToString(), d.ToString());
      }
      EXPECT_TRUE(AlertMultiset(br.alerts) ==
                  AlertMultiset(per_event->DrainAlerts()));
    }
    EXPECT_EQ(batched->Stats().events_applied,
              per_event->Stats().events_applied);
  }
}

TEST(AccessRuntimeTest, ObservationRefusalsSurfaceUniformly) {
  World w = MakeWorld(17, /*subject_count=*/4);
  const LocationId bogus = 9999;
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    RuntimeOptions options;
    options.num_shards = shards;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    ASSERT_OK_AND_ASSIGN(
        Decision d, rt->Apply(AccessEvent::Observe(10, w.subjects[0], bogus)));
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(DenyReason::kObservationRejected, d.reason);
    // The refusal also raised the impossible-movement alert.
    std::vector<Alert> alerts = rt->DrainAlerts();
    ASSERT_EQ(1u, alerts.size());
    EXPECT_EQ(AlertType::kImpossibleMovement, alerts[0].type);
  }
}

TEST(AccessRuntimeTest, MutationWindowIsEnforced) {
  World w = MakeWorld(23, /*subject_count=*/4);
  RuntimeOptions options;
  options.num_shards = 2;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));

  // Applying events from inside the mutation window must fail.
  Status inside = rt->Mutate([&](const MutableStores& stores) {
    Result<Decision> refused =
        rt->Apply(AccessEvent::Entry(5, w.subjects[0], 1));
    EXPECT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsFailedPrecondition());
    Result<BatchResult> batch_refused = rt->ApplyBatch(
        std::vector<AccessEvent>{AccessEvent::Entry(5, w.subjects[0], 1)});
    EXPECT_FALSE(batch_refused.ok());
    Status reentrant = rt->Mutate(
        [](const MutableStores&) { return Status::OK(); });
    EXPECT_TRUE(reentrant.IsFailedPrecondition());
    (void)stores;
    return Status::OK();
  });
  ASSERT_OK(inside);

  // A real mutation takes effect: grant a fresh subject a blanket
  // authorization and watch the decision flip.
  SubjectId newcomer = kInvalidSubject;
  LocationId door = rt->graph().EntryPrimitives(rt->graph().root())[0];
  ASSERT_OK(rt->Mutate([&](const MutableStores& stores) {
    LTAM_ASSIGN_OR_RETURN(newcomer, stores.profiles.AddSubject("newcomer"));
    LTAM_ASSIGN_OR_RETURN(
        LocationTemporalAuthorization auth,
        LocationTemporalAuthorization::Make(
            TimeInterval(0, 100), TimeInterval(0, 200),
            LocationAuthorization{newcomer, door}, kUnlimitedEntries));
    stores.auth_db.Add(auth);
    return Status::OK();
  }));
  ASSERT_OK_AND_ASSIGN(Decision granted,
                       rt->Apply(AccessEvent::Entry(10, newcomer, door)));
  EXPECT_TRUE(granted.granted);
}

class AccessRuntimeDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ltam_facade_durable";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(AccessRuntimeDurableTest, ShardCountOverrideIsReported) {
  World w = MakeWorld(31, /*subject_count=*/8);
  {
    RuntimeOptions options;
    options.num_shards = 3;
    options.durable_dir = dir_;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(3u, stats.num_shards);
    EXPECT_EQ(3u, stats.requested_shards);
    EXPECT_FALSE(stats.shard_count_overridden);
    EXPECT_TRUE(stats.durable);
  }
  // Reopen asking for a different count: the directory's pinned
  // partition wins and the override is visible, not guessed.
  {
    RuntimeOptions options;
    options.num_shards = 5;
    options.durable_dir = dir_;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(SystemState(), options));
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(3u, stats.num_shards);
    EXPECT_EQ(5u, stats.requested_shards);
    EXPECT_TRUE(stats.shard_count_overridden);
  }
  // Asking for one shard over a 3-shard directory is the same override
  // (never a fresh cut that would shadow the committed state).
  {
    RuntimeOptions options;
    options.num_shards = 1;
    options.durable_dir = dir_;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(SystemState(), options));
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(3u, stats.num_shards);
    EXPECT_TRUE(stats.shard_count_overridden);
  }
}

TEST_F(AccessRuntimeDurableTest, RemovedSequentialLayoutIsRefused) {
  // A directory from the removed sequential runtime (state.snap and/or
  // events.wal, no MANIFEST) must not open: a fresh cut would silently
  // ignore its committed state.
  World w = MakeWorld(37, /*subject_count=*/6);
  for (const std::string legacy : {"state.snap", "events.wal"}) {
    SCOPED_TRACE(legacy);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // What that runtime left behind: a whole-system snapshot, or an
    // (empty) event log from before its first checkpoint.
    if (legacy == "state.snap") {
      ASSERT_OK(SaveSnapshot(StateOf(w), dir_ + "/" + legacy));
    } else {
      std::ofstream touch(dir_ + "/" + legacy);
    }
    for (uint32_t shards : {1u, 4u}) {
      RuntimeOptions options;
      options.num_shards = shards;
      options.durable_dir = dir_;
      Result<std::unique_ptr<AccessRuntime>> opened =
          AccessRuntime::Open(StateOf(w), options);
      ASSERT_FALSE(opened.ok());
      const std::string message = opened.status().ToString();
      EXPECT_TRUE(opened.status().IsFailedPrecondition()) << message;
      EXPECT_NE(message.find(legacy), std::string::npos) << message;
      EXPECT_NE(message.find("removed"), std::string::npos) << message;
    }
    EXPECT_FALSE(fs::exists(dir_ + "/MANIFEST"))
        << "a refused directory must be left untouched";
  }
}

TEST_F(AccessRuntimeDurableTest, OneShardDurableRuntimeRetainsAndReplicates) {
  // One shard is a full durable citizen: tiered retention seals,
  // compacts, and drops; the runtime is replication-capable; and the
  // retained state recovers. In-memory retention is still refused.
  World w = MakeWorld(43);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 1200, 47);
  RuntimeOptions options;
  options.durable_dir = dir_;
  options.retention.max_hot_events = 8;
  options.retention.horizon = 40;
  options.retention.compaction_fanin = 3;
  std::map<SubjectId, LocationId> live;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    for (const auto& batch : batches) {
      ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batch));
      ASSERT_OK(r.durability);
      ASSERT_OK(rt->Checkpoint());
    }
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(1u, stats.num_shards);
    EXPECT_GT(stats.cold_segments, 0u);
    EXPECT_GT(stats.compaction_runs, 0u);
    EXPECT_GT(stats.dropped_events, 0u);
    ASSERT_OK(rt->ReplicationPosition().status());
    for (SubjectId s : w.subjects) {
      live[s] = rt->movements().CurrentLocation(s);
    }
    ASSERT_OK(rt->DemoteToReplica());
    EXPECT_TRUE(rt->ApplyBatch(batches[0]).status().IsFailedPrecondition());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(SystemState(), options));
  EXPECT_GT(rt->Stats().cold_segments, 0u);
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(live[s], rt->movements().CurrentLocation(s)) << "subject " << s;
  }

  RuntimeOptions in_memory;
  in_memory.retention = options.retention;
  Result<std::unique_ptr<AccessRuntime>> refused =
      AccessRuntime::Open(StateOf(w), in_memory);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument());
  EXPECT_EQ(std::string::npos, refused.status().ToString().find("shards"))
      << refused.status().ToString();
}

TEST_F(AccessRuntimeDurableTest, MutationsSurviveReopenWithoutExplicitCheckpoint) {
  // Mutations are not write-ahead logged; the facade checkpoints after
  // every Mutate so a crash right after still recovers the mutated
  // stores — and replays post-mutation events against them.
  World w = MakeWorld(71, /*subject_count=*/8);
  RuntimeOptions options;
  options.num_shards = 3;
  options.durable_dir = dir_;
  SubjectId newcomer = kInvalidSubject;
  LocationId door = kInvalidLocation;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    door = rt->graph().EntryPrimitives(rt->graph().root())[0];
    ASSERT_OK(rt->Mutate([&](const MutableStores& stores) {
      LTAM_ASSIGN_OR_RETURN(newcomer, stores.profiles.AddSubject("late-hire"));
      LTAM_ASSIGN_OR_RETURN(
          LocationTemporalAuthorization auth,
          LocationTemporalAuthorization::Make(
              TimeInterval(0, 100), TimeInterval(0, 200),
              LocationAuthorization{newcomer, door}, kUnlimitedEntries));
      stores.auth_db.Add(auth);
      return Status::OK();
    }));
    ASSERT_OK_AND_ASSIGN(Decision d,
                         rt->Apply(AccessEvent::Entry(10, newcomer, door)));
    ASSERT_TRUE(d.granted) << d.ToString();
    // No explicit Checkpoint(): drop the runtime as a crash stand-in.
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(SystemState(), options));
  EXPECT_TRUE(rt->profiles().Exists(newcomer));
  EXPECT_EQ(door, rt->movements().CurrentLocation(newcomer));
}

TEST_F(AccessRuntimeDurableTest, RestartKeepsRuleDerivedEntriesSpent) {
  // ltam_serve and ltam_shell derive the scripted rules into the initial
  // state before Open; a recovered directory ignores that state and keeps
  // the derived records of its snapshot. An in-process caller may still
  // re-derive after Open (RegisterAndDeriveScriptedRules). Neither path
  // may refund the entries Bob already spent under his rule-derived
  // authorization, nor grow the ledger with a fresh copy of it.
  const char* policy = R"(
SITE S
ROOM A IN S
ENTRY A
SUBJECT Alice
SUBJECT Bob
SUPERVISOR Alice Bob
AUTH Alice A ENTER [0,100] EXIT [0,200] TIMES 1
RULE FROM 0 BASE 0 SUBJECT Supervisor_Of
)";
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir_;
  auto boot = [&](bool rederive) -> Result<std::unique_ptr<AccessRuntime>> {
    LTAM_ASSIGN_OR_RETURN(SystemState state, ParsePolicyScript(policy));
    LTAM_RETURN_IF_ERROR(DeriveScriptedRules(&state));
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                          AccessRuntime::Open(std::move(state), options));
    if (rederive) {
      LTAM_RETURN_IF_ERROR(RegisterAndDeriveScriptedRules(rt.get()));
    }
    return rt;
  };
  SubjectId bob = kInvalidSubject;
  LocationId room = kInvalidLocation;
  size_t ledger = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot(false));
    ASSERT_OK_AND_ASSIGN(bob, rt->profiles().Find("Bob"));
    ASSERT_OK_AND_ASSIGN(room, rt->graph().Find("A"));
    ASSERT_OK_AND_ASSIGN(Decision entered,
                         rt->Apply(AccessEvent::Entry(10, bob, room)));
    ASSERT_TRUE(entered.granted) << entered.ToString();
    ASSERT_OK_AND_ASSIGN(Decision left, rt->Apply(AccessEvent::Exit(20, bob)));
    ASSERT_TRUE(left.granted) << left.ToString();
    ASSERT_OK_AND_ASSIGN(Decision again,
                         rt->Apply(AccessEvent::Entry(30, bob, room)));
    ASSERT_EQ(DenyReason::kEntriesExhausted, again.reason) << again.ToString();
    ledger = rt->auth_db().size();
  }
  for (Chronon t : {40, 50}) {
    SCOPED_TRACE(t);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot(t == 50));
    ASSERT_OK_AND_ASSIGN(Decision d,
                         rt->Apply(AccessEvent::Entry(t, bob, room)));
    EXPECT_FALSE(d.granted) << d.ToString();
    EXPECT_EQ(DenyReason::kEntriesExhausted, d.reason) << d.ToString();
    EXPECT_EQ(ledger, rt->auth_db().size());
  }
}

TEST_F(AccessRuntimeDurableTest, SecondRestartKeepsTheFirstRecoveredTail) {
  // After a crash, Open replays the log tail and commits the recovered
  // state as the recovery cut. Only the replayed shard's log holds the
  // tail, and its fresh log has accepted nothing, so the cut must still
  // rewrite that shard's snapshot: a second restart then still finds
  // Alice inside A and grants her exit.
  const char* policy = R"(
SITE S
ROOM A IN S
ENTRY A
SUBJECT Alice
AUTH Alice A ENTER [0,100] EXIT [0,200]
)";
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir_;
  auto boot = [&]() -> Result<std::unique_ptr<AccessRuntime>> {
    LTAM_ASSIGN_OR_RETURN(SystemState state, ParsePolicyScript(policy));
    LTAM_RETURN_IF_ERROR(DeriveScriptedRules(&state));
    return AccessRuntime::Open(std::move(state), options);
  };
  SubjectId alice = kInvalidSubject;
  LocationId room = kInvalidLocation;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot());
    ASSERT_OK_AND_ASSIGN(alice, rt->profiles().Find("Alice"));
    ASSERT_OK_AND_ASSIGN(room, rt->graph().Find("A"));
    ASSERT_OK_AND_ASSIGN(Decision entered,
                         rt->Apply(AccessEvent::Entry(10, alice, room)));
    ASSERT_TRUE(entered.granted) << entered.ToString();
    // No checkpoint after the entry: drop the runtime as a crash
    // stand-in.
  }
  for (int restart = 1; restart <= 2; ++restart) {
    SCOPED_TRACE(restart);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot());
    EXPECT_EQ(room, rt->movements().CurrentLocation(alice));
    if (restart == 2) {
      ASSERT_OK_AND_ASSIGN(Decision left,
                           rt->Apply(AccessEvent::Exit(20, alice)));
      EXPECT_TRUE(left.granted) << left.ToString();
    }
  }
}

TEST_F(AccessRuntimeDurableTest, EveryBootCommitsAtMostOneCut) {
  // The hosts' boot: derive the scripted rules into the initial state,
  // then Open. A fresh directory is cut once, as epoch 0, already
  // holding the derivation; a relaunch after a crash commits exactly one
  // recovery cut; a relaunch after a clean checkpoint commits none.
  const char* policy = R"(
SITE S
ROOM A IN S
ENTRY A
SUBJECT Alice
SUBJECT Bob
SUPERVISOR Alice Bob
AUTH Alice A ENTER [0,100] EXIT [0,200]
RULE FROM 0 BASE 0 SUBJECT Supervisor_Of
)";
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir_;
  auto boot = [&]() -> Result<std::unique_ptr<AccessRuntime>> {
    LTAM_ASSIGN_OR_RETURN(SystemState state, ParsePolicyScript(policy));
    LTAM_RETURN_IF_ERROR(DeriveScriptedRules(&state));
    return AccessRuntime::Open(std::move(state), options);
  };
  SubjectId bob = kInvalidSubject;
  LocationId room = kInvalidLocation;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot());
    EXPECT_EQ(0u, rt->Stats().epoch);
    EXPECT_FALSE(rt->recovery().recovered);
    ASSERT_OK_AND_ASSIGN(bob, rt->profiles().Find("Bob"));
    ASSERT_OK_AND_ASSIGN(room, rt->graph().Find("A"));
    // Bob's only grant is the rule's derivation.
    ASSERT_OK_AND_ASSIGN(Decision d,
                         rt->Apply(AccessEvent::Entry(10, bob, room)));
    EXPECT_TRUE(d.granted) << d.ToString();
    // No checkpoint: drop the runtime as a crash stand-in.
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot());
    EXPECT_TRUE(rt->recovery().recovered);
    EXPECT_EQ(1u, rt->recovery().replayed_records);
    EXPECT_EQ(1u, rt->Stats().epoch);
    EXPECT_EQ(room, rt->movements().CurrentLocation(bob));
    ASSERT_OK_AND_ASSIGN(Decision d, rt->Apply(AccessEvent::Exit(20, bob)));
    EXPECT_TRUE(d.granted) << d.ToString();
    ASSERT_OK(rt->Checkpoint());
    EXPECT_EQ(2u, rt->Stats().epoch);
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt, boot());
  EXPECT_TRUE(rt->recovery().recovered);
  EXPECT_EQ(0u, rt->recovery().replayed_records);
  EXPECT_EQ(2u, rt->Stats().epoch);
  EXPECT_EQ(kInvalidLocation, rt->movements().CurrentLocation(bob));
  // An in-process re-derivation over a runtime that holds no rules opens
  // no Mutate window, so it commits no cut either.
  ASSERT_OK_AND_ASSIGN(SystemState ruleless, ParsePolicyScript(policy));
  ruleless.rules.clear();
  const std::string plain_dir = dir_ + "/ruleless";
  fs::create_directories(plain_dir);
  RuntimeOptions plain = options;
  plain.durable_dir = plain_dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> bare,
                       AccessRuntime::Open(std::move(ruleless), plain));
  size_t derived = 1;
  ASSERT_OK(RegisterAndDeriveScriptedRules(bare.get(), &derived));
  EXPECT_EQ(0u, derived);
  EXPECT_EQ(0u, bare->Stats().epoch);
}

TEST_F(AccessRuntimeDurableTest, RecoveredRuntimeShipsOnlyItsOwnAppends) {
  // The recovered replication position of a reopened runtime must name
  // the first record this instance appended. Without a recovery cut,
  // appends land after the pre-crash lines of the reopened log, and a
  // slice from that position ships those stale records instead.
  World w = MakeWorld(83, /*subject_count=*/12);
  std::vector<std::vector<AccessEvent>> batches =
      MakeBatches(w, /*total_events=*/400, 89);
  ASSERT_GE(batches.size(), 3u);
  const size_t crash_at = batches.size() / 2;
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir_;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    for (size_t i = 0; i < crash_at; ++i) {
      ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batches[i]));
      ASSERT_OK(r.durability);
    }
    // No checkpoint: drop the runtime as a crash stand-in.
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(SystemState(), options));
  ASSERT_OK_AND_ASSIGN(uint64_t recovered, rt->ReplicationPosition());
  const std::vector<AccessEvent>& fresh = batches[crash_at];
  ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(fresh));
  ASSERT_OK(r.durability);
  ASSERT_OK(rt->WaitDurable());
  // The batch's records, in shard order.
  std::vector<std::string> expected;
  for (uint32_t k = 0; k < options.num_shards; ++k) {
    for (const AccessEvent& e : fresh) {
      if (ShardedDecisionEngine::ShardOfSubject(e.subject,
                                                options.num_shards) == k) {
        expected.push_back(WalLine(e));
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(AccessRuntime::ReplicationSlice slice,
                       rt->ReadReplicationSlice(recovered, 1 << 20));
  EXPECT_EQ(expected, slice.records);
  EXPECT_EQ(recovered + expected.size(), slice.next);
}

TEST_F(AccessRuntimeDurableTest, RestartedReplicaResumesFromItsPosition) {
  // A replica that applied N shipped records and went down without a
  // checkpoint must come back at position N: its recovered snapshot
  // holds those records, so the primary's next slice must carry only
  // the records after them. Positions that restart at 0 make the
  // primary re-ship the whole log and the replica re-apply (and
  // re-log) records it already holds.
  World w = MakeWorld(97, /*subject_count=*/10);
  std::vector<std::vector<AccessEvent>> batches =
      MakeBatches(w, /*total_events=*/200, 101);
  ASSERT_GE(batches.size(), 2u);
  const std::string primary_dir = dir_ + "/primary";
  const std::string replica_dir = dir_ + "/replica";
  fs::create_directories(primary_dir);
  fs::create_directories(replica_dir);
  RuntimeOptions primary_options;
  primary_options.durable_dir = primary_dir;
  RuntimeOptions replica_options;
  replica_options.durable_dir = replica_dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> primary,
                       AccessRuntime::Open(StateOf(w), primary_options));
  // Ships everything durable past `from` to the replica; returns the
  // shipped records.
  auto ship = [&](AccessRuntime* replica, uint64_t from) {
    Result<AccessRuntime::ReplicationSlice> slice =
        primary->ReadReplicationSlice(from, 1 << 20);
    EXPECT_OK(slice.status());
    if (!slice.ok()) return std::vector<std::string>();
    EXPECT_OK(replica->ApplyReplicated(from, slice->records).status());
    return slice->records;
  };

  ASSERT_OK(primary->ApplyBatch(batches[0]).status());
  ASSERT_OK(primary->WaitDurable());
  uint64_t applied = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> replica,
                         AccessRuntime::Open(StateOf(w), replica_options));
    ASSERT_OK(replica->DemoteToReplica());
    applied = ship(replica.get(), 0).size();
    ASSERT_EQ(batches[0].size(), applied);
    ASSERT_OK(replica->WaitDurable());
    // No checkpoint: drop the replica as a crash stand-in.
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> replica,
                       AccessRuntime::Open(SystemState(), replica_options));
  EXPECT_EQ(applied, replica->recovery().replayed_records);
  ASSERT_OK(replica->DemoteToReplica());
  ASSERT_OK_AND_ASSIGN(uint64_t position, replica->ReplicationPosition());
  EXPECT_EQ(applied, position) << "the restart kept the position";

  ASSERT_OK(primary->ApplyBatch(batches[1]).status());
  ASSERT_OK(primary->WaitDurable());
  std::vector<std::string> expected;
  for (const AccessEvent& e : batches[1]) {
    expected.push_back(WalLine(e));
  }
  EXPECT_EQ(expected, ship(replica.get(), position))
      << "the next slice carries only the new batch";
  // The replica logs each decoded record through the same writer, so
  // its own log holds the primary's bytes (and ships them onward).
  ASSERT_OK(replica->WaitDurable());
  ASSERT_OK_AND_ASSIGN(AccessRuntime::ReplicationSlice relogged,
                       replica->ReadReplicationSlice(position, 1 << 20));
  EXPECT_EQ(expected, relogged.records);
  ASSERT_OK_AND_ASSIGN(position, replica->ReplicationPosition());
  EXPECT_EQ(applied + batches[1].size(), position);

  // A second restart starts from the floor the first one's recovery cut
  // committed to the MANIFEST, plus the tail it replays.
  ASSERT_OK(replica->WaitDurable());
  replica.reset();
  ASSERT_OK_AND_ASSIGN(replica,
                       AccessRuntime::Open(SystemState(), replica_options));
  EXPECT_EQ(batches[1].size(), replica->recovery().replayed_records);
  ASSERT_OK_AND_ASSIGN(position, replica->ReplicationPosition());
  EXPECT_EQ(applied + batches[1].size(), position);
}

TEST_F(AccessRuntimeDurableTest, StateSurvivesReopenAndCheckpoint) {
  World w = MakeWorld(41);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 600, 43);
  RuntimeOptions options;
  options.num_shards = 3;
  options.durable_dir = dir_;

  std::map<SubjectId, LocationId> live;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    size_t i = 0;
    for (const auto& batch : batches) {
      ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batch));
      EXPECT_OK(r.durability);
      if (++i == batches.size() / 2) ASSERT_OK(rt->Checkpoint());
    }
    EXPECT_GE(rt->Stats().epoch, 1u);
    for (SubjectId s : w.subjects) {
      live[s] = rt->movements().CurrentLocation(s);
    }
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(SystemState(), options));
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(live[s], rt->movements().CurrentLocation(s)) << "subject " << s;
  }
}

TEST(AccessRuntimeTest, ApplyFixRoutesThroughBoundaries) {
  // Two rooms with boundaries; fixes inside record observations, a fix
  // outside closes the open stay — HandlePositionFix semantics through
  // the uniform (and, durable, logged) event path.
  SystemState state;
  state.graph = MultilevelLocationGraph("Site");
  LocationId a =
      state.graph.AddPrimitive("A", state.graph.root()).ValueOrDie();
  LocationId b =
      state.graph.AddPrimitive("B", state.graph.root()).ValueOrDie();
  ASSERT_OK(state.graph.AddEdge(a, b));
  ASSERT_OK(state.graph.SetEntry(a));
  ASSERT_OK(state.graph.SetBoundary(a, Polygon::Rect(0, 0, 10, 10)));
  ASSERT_OK(state.graph.SetBoundary(b, Polygon::Rect(10, 0, 20, 10)));
  ASSERT_OK(state.graph.Validate());
  SubjectId alice = state.profiles.AddSubject("Alice").ValueOrDie();
  for (LocationId l : {a, b}) {
    state.auth_db.Add(LocationTemporalAuthorization::Make(
                          TimeInterval(0, 100), TimeInterval(0, 200),
                          LocationAuthorization{alice, l}, kUnlimitedEntries)
                          .ValueOrDie());
  }

  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    RuntimeOptions options;
    options.num_shards = shards;
    SystemState copy = state;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(std::move(copy), options));
    ASSERT_OK(rt->ApplyFix({5, alice, {3, 3}}));    // Inside A.
    EXPECT_EQ(a, rt->movements().CurrentLocation(alice));
    ASSERT_OK(rt->ApplyFix({10, alice, {15, 5}}));  // Inside B.
    EXPECT_EQ(b, rt->movements().CurrentLocation(alice));
    ASSERT_OK(rt->ApplyFix({20, alice, {50, 50}}));  // Outside: exit.
    EXPECT_EQ(kInvalidLocation, rt->movements().CurrentLocation(alice));
    // Outside while already outside: a clean no-op.
    ASSERT_OK(rt->ApplyFix({25, alice, {60, 60}}));
  }
}

TEST(AccessRuntimeTest, StatsCountersTrack) {
  World w = MakeWorld(53, /*subject_count=*/6);
  RuntimeOptions options;
  options.num_shards = 2;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 200, 59);
  size_t events = 0;
  for (const auto& batch : batches) {
    ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batch));
    events += batch.size();
  }
  RuntimeStats stats = rt->Stats();
  EXPECT_EQ(batches.size(), stats.batches_applied);
  EXPECT_EQ(events, stats.events_applied);
  EXPECT_EQ(2u, stats.num_shards);
  EXPECT_FALSE(stats.durable);
  EXPECT_EQ(0u, stats.pending_alerts);  // ApplyBatch drains.
}

TEST(AccessRuntimeTest, InMemoryWatermarkEqualsApplied) {
  World w = MakeWorld(71);
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    RuntimeOptions options;
    options.num_shards = shards;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 200, 73);
    size_t events = 0;
    for (const auto& batch : batches) {
      ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batch));
      events += batch.size();
      EXPECT_EQ(r.watermark.applied, r.watermark.durable)
          << "in-memory backends are always 'durable'";
      EXPECT_EQ(r.watermark.applied, events);
    }
    ASSERT_OK(rt->WaitDurable());
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(stats.applied_offset, events);
    EXPECT_EQ(stats.durable_offset, events);
    EXPECT_EQ(stats.wal_append_failures, 0u);
    EXPECT_EQ(stats.wal_sync_failures, 0u);
  }
}

TEST(AccessRuntimeTest, InMemoryRuntimeAnswersTheDurableOnlySurface) {
  // An in-memory runtime has no directory: replication and promotion
  // are refused, the durability barriers are trivially met, and Stats()
  // reports no storage at all.
  World w = MakeWorld(89, /*subject_count=*/6);
  const std::string needs_dir = "requires a durable runtime (durable_dir set)";
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    RuntimeOptions options;
    options.num_shards = shards;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));

    Status demoted = rt->DemoteToReplica();
    EXPECT_TRUE(demoted.IsFailedPrecondition()) << demoted.ToString();
    EXPECT_NE(std::string::npos, demoted.ToString().find(needs_dir))
        << demoted.ToString();
    EXPECT_FALSE(rt->is_replica());
    Status position = rt->ReplicationPosition().status();
    EXPECT_TRUE(position.IsFailedPrecondition()) << position.ToString();
    EXPECT_NE(std::string::npos, position.ToString().find(needs_dir))
        << position.ToString();
    Status slice = rt->ReadReplicationSlice(0, 16).status();
    EXPECT_TRUE(slice.IsFailedPrecondition()) << slice.ToString();
    EXPECT_NE(std::string::npos, slice.ToString().find(needs_dir))
        << slice.ToString();
    EXPECT_TRUE(rt->ApplyReplicated(0, {}).status().IsFailedPrecondition());
    EXPECT_TRUE(rt->Promote().status().IsFailedPrecondition());
    EXPECT_OK(rt->AdoptReplicationEpoch(0));
    EXPECT_TRUE(rt->AdoptReplicationEpoch(1).IsFailedPrecondition());
    EXPECT_EQ(0u, rt->replication_epoch());
    EXPECT_OK(rt->Checkpoint());
    EXPECT_OK(rt->WaitDurable());

    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(shards, stats.num_shards);
    EXPECT_EQ(shards, stats.requested_shards);
    EXPECT_FALSE(stats.shard_count_overridden);
    EXPECT_FALSE(stats.durable);
    EXPECT_FALSE(stats.replica);
    EXPECT_EQ(0u, stats.replication_epoch);
    EXPECT_EQ(0u, stats.epoch);
    EXPECT_EQ(0u, stats.wal_events);
    EXPECT_EQ(0u, stats.cold_segments);
    EXPECT_EQ(0u, stats.cold_bytes);
    EXPECT_EQ(0u, stats.dropped_events);
    EXPECT_EQ(0u, stats.compaction_runs);
    EXPECT_EQ(0u, stats.checkpoint_dirty_segments);
  }
}

TEST(AccessRuntimeTest, PipelinedWatermarkAndWaitDurable) {
  // One and three durable shards: the watermark must cover every
  // accepted record after WaitDurable.
  World w = MakeWorld(79);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 400, 83);
  for (uint32_t shards : {1u, 3u}) {
    const std::string name = std::to_string(shards) + "-shard";
    SCOPED_TRACE(name);
    const std::string dir = ::testing::TempDir() + "/ltam_facade_wm_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    RuntimeOptions options;
    options.num_shards = shards;
    options.durable_dir = dir;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    for (const auto& batch : batches) {
      ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batch));
      ASSERT_OK(r.durability);
      EXPECT_LE(r.watermark.durable, r.watermark.applied);
    }
    ASSERT_OK(rt->WaitDurable());
    RuntimeStats stats = rt->Stats();
    EXPECT_EQ(stats.durable_offset, stats.applied_offset)
        << "WaitDurable must close the gap";
    EXPECT_GT(stats.applied_offset, 0u);
    EXPECT_EQ(stats.wal_append_failures, 0u);
    EXPECT_EQ(stats.wal_sync_failures, 0u);
    rt.reset();
    fs::remove_all(dir);
  }
}

TEST(AccessRuntimeTest, PipelinedSyncTrailsUntilABarrier) {
  // A durable runtime's batches are applied and published, not written:
  // durable trails applied, and stays there with no further traffic,
  // until a barrier writes and fsyncs the tail. An in-process runtime
  // does not converge on its own.
  World w = MakeWorld(997);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 60, 991);
  const std::string dir = ::testing::TempDir() + "/ltam_idle_sync";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RuntimeOptions options;
  options.num_shards = 1;
  options.durable_dir = dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  for (const auto& batch : batches) {
    ASSERT_OK(rt->ApplyBatch(batch).status());
  }
  const RuntimeStats published = rt->Stats();
  EXPECT_GT(published.applied_offset, 0u);
  EXPECT_LT(published.durable_offset, published.applied_offset)
      << "a batch is durable only once a barrier ran";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(published.durable_offset, rt->Stats().durable_offset)
      << "nothing closes the gap on its own";
  ASSERT_OK(rt->WaitDurable());
  const RuntimeStats flushed = rt->Stats();
  EXPECT_EQ(flushed.applied_offset, flushed.durable_offset)
      << "the barrier made the tail durable";
  EXPECT_EQ(published.applied_offset, flushed.applied_offset);
  rt.reset();
  fs::remove_all(dir);
}

TEST(AccessRuntimeTest, PipelinedSyncFailureIsStickyUntilCheckpoint) {
  // Fault injection through the log's own sync at one shard: the first
  // fsync, which the first barrier (WaitDurable) issues, fails. The log
  // does NOT retry — a retried fsync can report success for dirty pages
  // the kernel dropped after the first failure — so the failure is
  // counted, the watermark freezes, every barrier and every later batch
  // reports it, and only Checkpoint() (a fresh snapshot plus fresh
  // logs) repairs the log.
  World w = MakeWorld(1013);
  std::vector<std::vector<AccessEvent>> batches = MakeBatches(w, 300, 1019);
  ASSERT_GE(batches.size(), 3u);
  const std::string dir = ::testing::TempDir() + "/ltam_sync_faults";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto failures_left = std::make_shared<std::atomic<int>>(1);
  RuntimeOptions options;
  options.num_shards = 1;
  options.durable_dir = dir;
  options.durability.fault_injector = [failures_left](const char* op,
                                                      uint64_t) {
    if (std::string(op) == "sync" && failures_left->fetch_sub(1) > 0) {
      return Status::IOError("injected sync failure");
    }
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ASSERT_OK(rt->ApplyBatch(batches[0]).status());
  EXPECT_EQ(0u, rt->Stats().wal_sync_failures) << "no fsync before a barrier";
  EXPECT_FALSE(rt->WaitDurable().ok()) << "the barrier reports the failure";
  RuntimeStats failed = rt->Stats();
  ASSERT_EQ(1u, failed.wal_sync_failures) << "one failure";
  EXPECT_EQ(0u, failed.wal_append_failures);
  EXPECT_LT(failed.durable_offset, failed.applied_offset);
  EXPECT_FALSE(rt->WaitDurable().ok()) << "every barrier reports it";
  RuntimeStats frozen = rt->Stats();
  EXPECT_EQ(1u, frozen.wal_sync_failures) << "no retry";
  EXPECT_EQ(failed.durable_offset, frozen.durable_offset)
      << "a failed fsync must freeze the watermark, not retry";
  ASSERT_OK_AND_ASSIGN(BatchResult after, rt->ApplyBatch(batches[1]));
  EXPECT_FALSE(after.durability.ok()) << "later batches report it too";
  EXPECT_FALSE(rt->WaitDurable().ok());
  EXPECT_EQ(failed.durable_offset, rt->Stats().durable_offset);
  EXPECT_EQ(1u, rt->Stats().wal_sync_failures) << "still no retry";

  // Checkpoint repairs: the snapshot covers everything applied, and the
  // fresh log syncs at its barriers again.
  ASSERT_OK(rt->Checkpoint());
  RuntimeStats repaired = rt->Stats();
  EXPECT_EQ(repaired.durable_offset, repaired.applied_offset);
  EXPECT_GE(repaired.wal_sync_failures, 1u)
      << "failure history must survive the checkpoint";
  for (size_t i = 2; i < batches.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(BatchResult r, rt->ApplyBatch(batches[i]));
    EXPECT_OK(r.durability);
  }
  // The repaired log syncs again.
  EXPECT_OK(rt->WaitDurable());
  RuntimeStats synced = rt->Stats();
  EXPECT_EQ(synced.applied_offset, synced.durable_offset);
  rt.reset();
  fs::remove_all(dir);
}

// --- Scenario-family equivalence ---------------------------------------------
// Each load-harness scenario family (sim/workload.h), replayed in its
// canonical frame order with its mutations applied at the recorded
// frame boundaries, must produce a byte-identical decision stream and
// equal alerts across the in-memory/durable x 1/3-shard matrix — the
// property that lets the open-loop load generator treat any
// configuration as "the" server for a given scenario.

struct ScenarioOutcome {
  std::vector<std::string> decisions;
  std::multiset<AlertKey> alerts;
  /// Pool query answers (contact sweep), keyed by the statement.
  std::map<std::string, std::string> query_answers;
  size_t granted = 0;
};

ScenarioOutcome ReplayScenario(const LoadScenario& scenario,
                               RuntimeOptions options) {
  options.engine = scenario.engine;
  ScenarioOutcome out;
  SystemState initial = scenario.initial;
  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(std::move(initial), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  std::unique_ptr<AccessRuntime> rt = std::move(opened).ValueOrDie();

  const std::vector<std::vector<AccessEvent>> frames =
      FlattenScenarioFrames(scenario);
  size_t next_mutation = 0;
  for (size_t f = 0; f < frames.size(); ++f) {
    while (next_mutation < scenario.mutations.size() &&
           scenario.mutations[next_mutation].before_frame == f) {
      Status mutated =
          ApplyScenarioMutation(rt.get(), scenario.mutations[next_mutation]);
      EXPECT_OK(mutated);
      ++next_mutation;
    }
    Result<BatchResult> r = rt->ApplyBatch(frames[f]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    EXPECT_OK(r->durability);
    for (const Decision& d : r->decisions) {
      out.decisions.push_back(d.ToString());
    }
    for (const Alert& a : r->alerts) {
      out.alerts.insert(std::make_tuple(a.time, a.subject, a.location,
                                        static_cast<int>(a.type), a.detail));
    }
  }
  EXPECT_EQ(next_mutation, scenario.mutations.size())
      << "every mutation must land before some frame that exists";
  for (const Alert& a : rt->DrainAlerts()) {
    out.alerts.insert(std::make_tuple(a.time, a.subject, a.location,
                                      static_cast<int>(a.type), a.detail));
  }
  out.granted = rt->Stats().requests_granted;

  // The family's read mix must parse and answer identically too (the
  // contact sweep's pool; empty for the other families).
  QueryInterpreter interp(&rt->query(), &rt->graph(), &rt->profiles(),
                          &rt->movements(), &rt->auth_db());
  const size_t pool_sample = std::min<size_t>(8, scenario.queries.size());
  for (size_t i = 0; i < pool_sample; ++i) {
    Result<QueryResult> answer = interp.Run(scenario.queries[i]);
    EXPECT_TRUE(answer.ok()) << scenario.queries[i] << ": "
                             << answer.status().ToString();
    out.query_answers[scenario.queries[i]] =
        answer.ok() ? answer->ToString() : answer.status().ToString();
  }
  return out;
}

class ScenarioFamilyEquivalenceTest
    : public ::testing::TestWithParam<ScenarioFamily> {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/ltam_scenario_" +
            std::string(ScenarioFamilyToString(GetParam()));
    fs::remove_all(root_);
    fs::create_directories(root_ + "/1-shard");
    fs::create_directories(root_ + "/3-shard");
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_P(ScenarioFamilyEquivalenceTest, BackendMatrixAgrees) {
  ScenarioOptions so;
  so.subjects = 36;
  so.streams = 3;
  so.total_events = 900;
  so.events_per_frame = 24;
  so.mutate_every_frames = 4;
  ASSERT_OK_AND_ASSIGN(LoadScenario scenario,
                       GenerateLoadScenario(GetParam(), so));
  ASSERT_EQ(scenario.total_events, so.total_events);
  if (GetParam() == ScenarioFamily::kPolicyChurn) {
    ASSERT_GT(scenario.mutations.size(), 0u);
  }
  if (GetParam() == ScenarioFamily::kContactSweep ||
      GetParam() == ScenarioFamily::kReplication) {
    ASSERT_GT(scenario.queries.size(), 0u);
  }
  if (GetParam() == ScenarioFamily::kReplication) {
    // Read-heavy by construction, and never mutating: only WAL-logged
    // events replicate, so the family must not carry a mutation
    // schedule.
    EXPECT_GT(scenario.query_fraction, 0.25);
    EXPECT_TRUE(scenario.mutations.empty());
  }

  // Scenario mutations run through the Mutate window, so the reference
  // is the in-memory one-shard runtime (itself pinned to the oracle by
  // EveryConfigurationMatchesOracle).
  RuntimeOptions one_shard;
  RuntimeOptions sharded;
  sharded.num_shards = 3;
  RuntimeOptions durable_one;
  durable_one.durable_dir = root_ + "/1-shard";
  RuntimeOptions durable_sharded;
  durable_sharded.num_shards = 3;
  durable_sharded.durable_dir = root_ + "/3-shard";

  ScenarioOutcome reference = ReplayScenario(scenario, one_shard);
  ASSERT_EQ(reference.decisions.size(), scenario.total_events);
  struct Config {
    const char* name;
    RuntimeOptions options;
  };
  const Config configs[] = {{"3-shard", sharded},
                            {"1-shard-durable", durable_one},
                            {"3-shard-durable", durable_sharded}};
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    ScenarioOutcome outcome = ReplayScenario(scenario, config.options);
    ASSERT_EQ(reference.decisions.size(), outcome.decisions.size());
    for (size_t i = 0; i < reference.decisions.size(); ++i) {
      ASSERT_EQ(reference.decisions[i], outcome.decisions[i])
          << "decision " << i << " diverged";
    }
    EXPECT_EQ(reference.granted, outcome.granted);
    EXPECT_TRUE(reference.alerts == outcome.alerts)
        << "alert sets diverged (" << reference.alerts.size() << " vs "
        << outcome.alerts.size() << ")";
    EXPECT_EQ(reference.query_answers, outcome.query_answers);
  }

  // The deterministic-construction contract the two-process load flow
  // rests on: regenerating the scenario gives the identical streams.
  ASSERT_OK_AND_ASSIGN(LoadScenario again,
                       GenerateLoadScenario(GetParam(), so));
  ASSERT_EQ(scenario.streams.size(), again.streams.size());
  for (size_t c = 0; c < scenario.streams.size(); ++c) {
    ASSERT_EQ(scenario.streams[c].size(), again.streams[c].size());
    for (size_t f = 0; f < scenario.streams[c].size(); ++f) {
      const auto& lhs = scenario.streams[c][f];
      const auto& rhs = again.streams[c][f];
      ASSERT_EQ(lhs.size(), rhs.size());
      for (size_t e = 0; e < lhs.size(); ++e) {
        EXPECT_EQ(lhs[e].ToString(), rhs[e].ToString());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ScenarioFamilyEquivalenceTest,
    ::testing::Values(ScenarioFamily::kSurge, ScenarioFamily::kContactSweep,
                      ScenarioFamily::kPolicyChurn,
                      ScenarioFamily::kMultiTenant,
                      ScenarioFamily::kReplication),
    [](const ::testing::TestParamInfo<ScenarioFamily>& info) {
      return std::string(ScenarioFamilyToString(info.param));
    });

}  // namespace
}  // namespace ltam
