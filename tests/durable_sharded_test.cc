// Copyright 2026 The LTAM Authors.
// The durable runtime: lifecycle, checkpoint epochs, and the
// crash-injection recovery matrix: truncate each shard's WAL at
// randomized byte offsets after a random workload, reopen, and assert the
// recovered ledger/movement/alert state equals a sequential replay of the
// surviving log prefix. Every test runs at 1 and 4 shards — one shard is
// the whole durable runtime at its smallest, not a special case. Run
// under ASan and TSan via ci.sh (recovery replays shard logs in
// parallel).

#include "storage/durable_sharded_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/event_log.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

/// Logs and applies one batch through the durable system's engine, the
/// way AccessRuntime drives it: the decisions come back whatever
/// happened, and *durability receives the batch's durability outcome.
std::vector<Decision> EvaluateBatch(DurableShardedSystem* sys,
                                    Span<const AccessEvent> batch,
                                    Status* durability) {
  std::vector<Decision> decisions = sys->engine().EvaluateBatch(batch);
  *durability = sys->TakeBatchError();
  return decisions;
}

/// The same, with any durability failure folded into the result (the
/// decisions are then dropped).
Result<std::vector<Decision>> EvaluateBatch(DurableShardedSystem* sys,
                                            Span<const AccessEvent> batch) {
  Status durability;
  std::vector<Decision> decisions = EvaluateBatch(sys, batch, &durability);
  if (!durability.ok()) return durability;
  return decisions;
}

/// The line `e`'s shard log holds for it (no newline), as shipped.
std::string WalLine(const AccessEvent& e) {
  std::string line;
  AppendEventLine(e, &line);
  line.pop_back();
  return line;
}

/// A reproducible world: grid graph, subjects, random authorizations.
SystemState MakeInitialState(uint64_t seed, uint32_t subjects = 24,
                             std::vector<SubjectId>* out_subjects = nullptr) {
  SystemState state;
  state.graph = MakeGridGraph(6, 6).ValueOrDie();
  std::vector<SubjectId> ids = GenerateSubjects(&state.profiles, subjects);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = 0.6;
  opt.horizon = 400;
  opt.min_len = 20;
  opt.max_len = 120;
  opt.max_entries = 3;
  GenerateAuthorizations(state.graph, ids, opt, &rng, &state.auth_db);
  if (out_subjects != nullptr) *out_subjects = ids;
  return state;
}

std::vector<std::vector<AccessEvent>> MakeBatches(
    const SystemState& state, const std::vector<SubjectId>& subjects,
    size_t total_events, size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  BatchWorkloadOptions opt;
  opt.batch_size = batch_size;
  opt.exit_fraction = 0.15;
  opt.observe_fraction = 0.15;
  return GenerateEventBatches(state.graph, subjects, total_events, opt, &rng);
}

using AlertKey = std::tuple<Chronon, SubjectId, LocationId, int, std::string>;

AlertKey KeyOf(const Alert& a) {
  return std::make_tuple(a.time, a.subject, a.location,
                         static_cast<int>(a.type), a.detail);
}

std::multiset<AlertKey> AlertMultiset(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& a : alerts) out.insert(KeyOf(a));
  return out;
}

std::string MovementKey(const MovementEvent& ev) { return ev.ToString(); }

/// A reference "recovered" runtime built from first principles: one
/// sequential AccessControlEngine per shard over a shared ledger, with
/// the recovery spec's open-stay rebuild (first in-window authorization
/// wins) applied at the cut.
struct ReferenceShards {
  SystemState state;  // Holds graph/profiles/auth_db; movements unused.
  uint32_t num_shards;
  std::vector<std::unique_ptr<MovementDatabase>> movements;
  std::vector<std::unique_ptr<AccessControlEngine>> engines;

  ReferenceShards(SystemState s, uint32_t shards)
      : state(std::move(s)), num_shards(shards) {
    for (uint32_t k = 0; k < num_shards; ++k) {
      movements.push_back(std::make_unique<MovementDatabase>());
      engines.push_back(std::make_unique<AccessControlEngine>(
          &state.graph, &state.auth_db, movements[k].get(), &state.profiles));
    }
  }

  uint32_t ShardOf(SubjectId s) const {
    return ShardedDecisionEngine::ShardOfSubject(s, num_shards);
  }

  /// Applies one live event stream position (entry/exit/observe to its
  /// owning shard, ticks to every shard).
  void ApplyEvent(const AccessEvent& e) {
    Decision ignored =
        ApplyAccessEvent(engines[ShardOf(e.subject)].get(), e);
    (void)ignored;
  }
  void ApplyTick(Chronon t) {
    for (auto& engine : engines) engine->Tick(t);
  }

  /// Replays the surviving WAL prefix (file already truncated): each
  /// event on its subject's shard, each tick on every shard.
  Status ReplaySurvivingLog(const std::string& path) {
    return ReplayWal(path, [&](const LoggedEvent& event) {
      if (event.is_tick) {
        ApplyTick(event.tick_time);
      } else {
        ApplyLoggedEvent(engines[ShardOf(event.event.subject)].get(), event);
      }
      return Status::OK();
    });
  }

  /// The recovery spec's stay rebuild: drop all in-memory stay state and
  /// re-match every inside subject, exactly like DurableShardedSystem at
  /// Open.
  void RebuildStaysAtCut() {
    for (uint32_t k = 0; k < num_shards; ++k) {
      // Fresh engine, same stores: forgets active-stay bookkeeping but
      // keeps ledger + movements (what a snapshot persists).
      engines[k] = std::make_unique<AccessControlEngine>(
          &state.graph, &state.auth_db, movements[k].get(), &state.profiles);
      for (SubjectId s : state.profiles.AllSubjects()) {
        if (ShardOf(s) != k) continue;
        LocationId cur = movements[k]->CurrentLocation(s);
        if (cur == kInvalidLocation) continue;
        Result<Chronon> since = movements[k]->CurrentStaySince(s);
        if (!since.ok()) continue;
        AuthId chosen = kInvalidAuth;
        for (AuthId id : state.auth_db.ForSubjectLocation(s, cur)) {
          if (state.auth_db.record(id).auth.entry_duration().Contains(
                  *since)) {
            chosen = id;
            break;
          }
        }
        engines[k]->ResumeStay(s, cur, chosen, *since);
      }
    }
  }

  std::vector<Alert> MergedAlerts() const {
    std::vector<Alert> out;
    for (const auto& engine : engines) {
      out.insert(out.end(), engine->alerts().begin(), engine->alerts().end());
    }
    return out;
  }
  void ClearAlerts() {
    for (auto& engine : engines) engine->ClearAlerts();
  }
};

/// Asserts the recovered system's state equals the reference's:
/// per-shard movement histories, the shared ledger, and (optionally)
/// alerts raised since the cut.
void ExpectStateEquals(const DurableShardedSystem& recovered,
                       const ReferenceShards& reference,
                       const char* context) {
  ASSERT_EQ(recovered.num_shards(), reference.num_shards) << context;
  for (uint32_t k = 0; k < reference.num_shards; ++k) {
    const auto& got = recovered.shard_movements(k).history();
    const auto& want = reference.movements[k]->history();
    ASSERT_EQ(got.size(), want.size()) << context << ", shard " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(MovementKey(got[i]), MovementKey(want[i]))
          << context << ", shard " << k << ", movement " << i;
    }
  }
  const AuthorizationDatabase& got_db = recovered.base().auth_db;
  const AuthorizationDatabase& want_db = reference.state.auth_db;
  ASSERT_EQ(got_db.size(), want_db.size()) << context;
  for (AuthId id = 0; id < got_db.size(); ++id) {
    EXPECT_EQ(got_db.record(id).entries_used, want_db.record(id).entries_used)
        << context << ", auth " << id;
    EXPECT_EQ(got_db.record(id).revoked, want_db.record(id).revoked)
        << context << ", auth " << id;
  }
}

std::vector<fs::path> WalPaths(const std::string& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("events-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".wal") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Parameterized by shard count.
class DurableShardedTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "/ltam_dsh_" + name;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  uint32_t shards() const { return GetParam(); }

  DurableShardedOptions Options() const {
    DurableShardedOptions opt;
    opt.num_shards = shards();
    return opt;
  }

  std::string dir_;
};

TEST_P(DurableShardedTest, FreshOpenWritesEpochZeroCut) {
  std::vector<SubjectId> subjects;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(7, 16, &subjects),
                                 Options()));
  EXPECT_EQ(sys->epoch(), 0u);
  EXPECT_EQ(sys->num_shards(), shards());
  EXPECT_EQ(sys->wal_events(), 0u);
  EXPECT_TRUE(fs::exists(dir_ + "/MANIFEST"));
  EXPECT_TRUE(fs::exists(dir_ + "/base-0.snap"));
  EXPECT_EQ(WalPaths(dir_).size(), 1u) << "one WAL per runtime";

  auto batches = MakeBatches(sys->base(), subjects, 120, 40, 11);
  size_t fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> decisions,
                         EvaluateBatch(sys.get(), batch));
    EXPECT_EQ(decisions.size(), batch.size());
    fed += batch.size();
  }
  EXPECT_EQ(sys->wal_events(), fed);
}

TEST_P(DurableShardedTest, RecoveryReplaysEveryShardTail) {
  std::vector<SubjectId> subjects;
  SystemState init = MakeInitialState(7, 16, &subjects);
  std::vector<std::vector<AccessEvent>> batches;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(7, 16), Options()));
    batches = MakeBatches(sys->base(), subjects, 200, 50, 13);
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    }
    ASSERT_OK(sys->Tick(500));
    // "Crash": no checkpoint, the object goes away.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(7, 16), Options()));

  ReferenceShards reference(MakeInitialState(7, 16), shards());
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) reference.ApplyEvent(e);
  }
  reference.ApplyTick(500);
  ExpectStateEquals(*sys, reference, "full-tail recovery");
  EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
            AlertMultiset(reference.MergedAlerts()));
}

TEST_P(DurableShardedTest, CheckpointRotatesEpochAndTruncatesLogs) {
  std::vector<SubjectId> subjects;
  SystemState init = MakeInitialState(21, 16, &subjects);
  auto batches = MakeBatches(init, subjects, 160, 40, 23);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, std::move(init), Options()));
    ASSERT_OK(EvaluateBatch(sys.get(), batches[0]).status());
    ASSERT_OK(sys->Checkpoint());
    EXPECT_EQ(sys->epoch(), 1u);
    EXPECT_EQ(sys->wal_events(), 0u);
    // Old epoch's files are swept.
    EXPECT_FALSE(fs::exists(dir_ + "/base-0.snap"));
    EXPECT_TRUE(fs::exists(dir_ + "/base-1.snap"));
    ASSERT_OK(EvaluateBatch(sys.get(), batches[1]).status());
    EXPECT_EQ(sys->wal_events(), batches[1].size());
  }
  // Recovery = snapshot cut + replay of the post-checkpoint tail only,
  // which Open then commits as the recovery cut.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(21, 16), Options()));
  EXPECT_EQ(sys->epoch(), 2u);

  ReferenceShards reference(MakeInitialState(21, 16), shards());
  for (const AccessEvent& e : batches[0]) reference.ApplyEvent(e);
  reference.RebuildStaysAtCut();
  reference.ClearAlerts();
  for (const AccessEvent& e : batches[1]) reference.ApplyEvent(e);
  ExpectStateEquals(*sys, reference, "post-checkpoint recovery");
  EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
            AlertMultiset(reference.MergedAlerts()));
}

TEST_P(DurableShardedTest, OverstayDetectionSurvivesRecovery) {
  // Alice enters a room whose exit window closes at 40, the runtime
  // checkpoints with the stay open, crashes, recovers — the resumed stay
  // must still trip the overstay patrol.
  SystemState init;
  init.graph = MakeFig4Graph().ValueOrDie();
  SubjectId alice = init.profiles.AddSubject("Alice").ValueOrDie();
  LocationId a = init.graph.Find("A").ValueOrDie();
  init.auth_db.Add(LocationTemporalAuthorization::Make(
                       TimeInterval(0, 30), TimeInterval(0, 40),
                       LocationAuthorization{alice, a}, 3)
                       .ValueOrDie());
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, std::move(init), Options()));
    ASSERT_OK_AND_ASSIGN(
        std::vector<Decision> decisions,
        EvaluateBatch(sys.get(), {AccessEvent::Entry(10, alice, a)}));
    ASSERT_TRUE(decisions[0].granted);
    ASSERT_OK(sys->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DurableShardedSystem> sys,
                       DurableShardedSystem::Open(dir_, SystemState(),
                                                  Options()));
  ASSERT_OK(sys->Tick(50));  // Past the exit window.
  bool overstay = false;
  for (const Alert& alert : sys->DrainAlerts()) {
    if (alert.type == AlertType::kOverstay && alert.subject == alice) {
      overstay = true;
    }
  }
  EXPECT_TRUE(overstay)
      << "resumed stay lost its exit-window tracking across recovery";
}

TEST_P(DurableShardedTest, RecoveryIgnoresFreshOptionsShardCount) {
  std::vector<SubjectId> subjects;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(3, 12, &subjects),
                                   Options()));
    auto batches = MakeBatches(sys->base(), subjects, 80, 40, 5);
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    }
  }
  DurableShardedOptions other;
  other.num_shards = 9;  // Must be overridden by the manifest's count.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(3, 12), other));
  EXPECT_EQ(sys->num_shards(), shards());
}

TEST_P(DurableShardedTest, OpenRejectsMissingDirectory) {
  EXPECT_TRUE(DurableShardedSystem::Open("/nonexistent/ltam", SystemState(),
                                         DurableShardedOptions{})
                  .status()
                  .IsIOError());
}

/// The acceptance criterion: truncate each shard's WAL at randomized
/// byte offsets (simulating a crash with partially-durable logs), reopen,
/// and assert the recovered state equals a sequential replay of the
/// surviving per-shard prefixes — including alerts — and that a crash
/// that tears nothing loses nothing below the durable watermark.
TEST_P(DurableShardedTest, PipelinedCrashInjectionRecoveryMatrix) {
  const uint64_t kWorldSeed = 97;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  DurabilityWatermark watermark;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(golden, MakeInitialState(kWorldSeed),
                                   Options()));
    auto batches = MakeBatches(probe, subjects, 600, 100, 101);
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_OK(EvaluateBatch(sys.get(), batches[i]).status());
      if (i == batches.size() / 2) ASSERT_OK(sys->Tick(250));
    }
    ASSERT_OK(sys->Tick(600));
    ASSERT_OK(sys->WaitDurable());
    watermark = sys->Watermark();
    ASSERT_EQ(watermark.durable, watermark.applied);
    // Crash without checkpoint: the whole stream lives in the WALs.
  }

  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string trial_dir = dir_ + "/trial" + std::to_string(trial);
    fs::remove_all(trial_dir);
    fs::copy(golden, trial_dir);

    // Truncate the WAL at a random offset. Trials 0 and 1 pin the
    // boundary cases: everything lost / nothing lost.
    std::vector<fs::path> wals = WalPaths(trial_dir);
    ASSERT_EQ(wals.size(), 1u);
    const fs::path& wal = wals[0];
    uint64_t surviving_records = 0;
    const uintmax_t size = fs::file_size(wal);
    const uintmax_t keep = trial == 0   ? 0
                           : trial == 1 ? size
                                        : rng.Uniform(size + 1);
    fs::resize_file(wal, keep);
    ASSERT_OK(ReplayWal(wal.string(), [&](const LoggedEvent&) {
      ++surviving_records;
      return Status::OK();
    }));
    if (trial == 1) {
      // Everything was durable at the crash: nothing may be missing.
      EXPECT_GE(surviving_records, watermark.durable);
    }

    // Reference: sequential replay of exactly the surviving prefix,
    // read before Open, whose recovery cut retires the log.
    ReferenceShards reference(MakeInitialState(kWorldSeed), shards());
    ASSERT_OK(reference.ReplaySurvivingLog(wal.string()));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                   Options()));
    ExpectStateEquals(*sys, reference, "crash trial");
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));

    // The recovered runtime must remain live: a probe batch and a patrol
    // tick behave exactly like the reference.
    reference.ClearAlerts();
    auto probe_batches = MakeBatches(probe, subjects, 60, 60, 777);
    ASSERT_EQ(probe_batches.size(), 1u);
    // Probe events must be later than anything replayed.
    std::vector<AccessEvent> late;
    for (AccessEvent e : probe_batches[0]) {
      e.time += 10000;
      late.push_back(e);
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> got_decisions,
                         EvaluateBatch(sys.get(), late));
    std::vector<Decision> want_decisions;
    for (const AccessEvent& e : late) {
      want_decisions.push_back(
          ApplyAccessEvent(
              reference.engines[reference.ShardOf(e.subject)].get(), e));
    }
    ASSERT_EQ(got_decisions.size(), want_decisions.size());
    for (size_t i = 0; i < got_decisions.size(); ++i) {
      EXPECT_EQ(got_decisions[i].ToString(), want_decisions[i].ToString())
          << "probe event " << i;
    }
    ASSERT_OK(sys->Tick(20000));
    reference.ApplyTick(20000);
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));

    // Torn-tail hygiene: the first recovery truncated any torn record,
    // so the probe appends landed on fresh lines — a second recovery of
    // the same directory must succeed and reach the same state.
    sys.reset();
    ASSERT_OK_AND_ASSIGN(
        sys, DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                        Options()));
    ExpectStateEquals(*sys, reference, "second recovery after probe");
  }
}

/// WriteEpoch creates every WAL before the manifest commit, so a cut
/// whose log vanished is data loss — recovery must refuse, not silently
/// drop the shard's tail.
TEST_P(DurableShardedTest, MissingShardWalIsARecoveryError) {
  std::vector<SubjectId> subjects;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(41, 12, &subjects),
                                   Options()));
    auto batches = MakeBatches(sys->base(), subjects, 80, 40, 43);
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    }
  }
  std::vector<fs::path> wals = WalPaths(dir_);
  ASSERT_EQ(wals.size(), 1u);
  fs::remove(wals.back());
  Result<std::unique_ptr<DurableShardedSystem>> reopened =
      DurableShardedSystem::Open(dir_, MakeInitialState(41, 12), Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsIOError()) << reopened.status().ToString();
}

/// Recovery replays a shard's tail into memory while the shard's log has
/// accepted nothing yet. The next checkpoint must still rewrite that
/// shard's snapshot: re-referencing the pre-crash one and then deleting
/// the log that held the tail would lose it at the following restart.
TEST_P(DurableShardedTest, CheckpointAfterRecoveryKeepsReplayedTail) {
  const uint64_t kWorldSeed = 53;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 16, &subjects);
  auto batches = MakeBatches(probe, subjects, 200, 50, 59);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(kWorldSeed, 16),
                                   Options()));
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    }
    ASSERT_OK(sys->Tick(500));
    // "Crash": no checkpoint, the tail lives only in the logs.
  }
  {
    // First restart: recover the tail, then checkpoint at once — the
    // boot sequence of ltam_serve and ltam_shell.
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(kWorldSeed, 16),
                                   Options()));
    ASSERT_OK(sys->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(kWorldSeed, 16),
                                 Options()));
  ReferenceShards reference(MakeInitialState(kWorldSeed, 16), shards());
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) reference.ApplyEvent(e);
  }
  reference.ApplyTick(500);
  ExpectStateEquals(*sys, reference, "second restart");
}

/// Rotated WAL segments were removed: a committed cut whose shard record
/// lists more than one WAL is refused with an actionable error instead
/// of being read as a single log.
TEST_P(DurableShardedTest, RotatedSegmentManifestIsRefused) {
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(61, 12), Options()));
  }
  // Rewrite the cut as a version-1 manifest (one WAL per shard) whose
  // shard 0 record lists a second segment, the way a rotation committed
  // one.
  std::string text = "manifest\t1\t0\t" + std::to_string(shards()) +
                     "\nbase\tbase-0.snap\n";
  for (uint32_t k = 0; k < shards(); ++k) {
    const std::string wal = "events-" + std::to_string(k) + "-0.wal";
    text += "shard\t" + std::to_string(k) + "\tshard-" + std::to_string(k) +
            "-0.snap\t" + wal;
    if (k == 0) text += "\tevents-0-0-1.wal";
    text += "\n";
    std::ofstream(dir_ + "/" + wal, std::ios::binary | std::ios::trunc);
  }
  text += "commit\t" + std::to_string(shards() + 2) + "\n";
  {
    std::ofstream out(dir_ + "/MANIFEST", std::ios::binary | std::ios::trunc);
    out << text;
  }
  Result<std::unique_ptr<DurableShardedSystem>> reopened =
      DurableShardedSystem::Open(dir_, MakeInitialState(61, 12), Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsFailedPrecondition())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("rotated WAL segments"),
            std::string::npos)
      << reopened.status().ToString();
}

/// Fault injection on the write path: failing the Nth append (and
/// every fsync after it) must never change a single decision — the
/// failure surfaces exclusively through the batch durability status,
/// the frozen watermark, and the failure counters — and a checkpoint
/// repairs the log (the snapshot supersedes the lost tail).
TEST_P(DurableShardedTest, PipelinedFaultsSurfaceInWatermarkNotDecisions) {
  const uint64_t kWorldSeed = 401;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  auto batches = MakeBatches(probe, subjects, 400, 80, 409);

  // Healthy reference.
  std::vector<std::string> want_decisions;
  {
    const std::string ref_dir = dir_ + "/ref";
    fs::create_directories(ref_dir);
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(ref_dir, MakeInitialState(kWorldSeed),
                                   Options()));
    for (const auto& batch : batches) {
      Status durability;
      for (const Decision& d :
           EvaluateBatch(sys.get(), batch, &durability)) {
        want_decisions.push_back(d.ToString());
      }
      ASSERT_OK(durability);
    }
  }

  const std::string faulty_dir = dir_ + "/faulty";
  fs::create_directories(faulty_dir);
  DurableShardedOptions faulty = Options();
  // Every shard log fails its 20th append and every subsequent one.
  faulty.durability.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count >= 20) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(faulty_dir, MakeInitialState(kWorldSeed),
                                 faulty));
  std::vector<std::string> got_decisions;
  bool saw_durability_error = false;
  for (const auto& batch : batches) {
    Status durability;
    for (const Decision& d :
         EvaluateBatch(sys.get(), batch, &durability)) {
      got_decisions.push_back(d.ToString());
    }
    if (!durability.ok()) saw_durability_error = true;
  }
  ASSERT_EQ(want_decisions.size(), got_decisions.size());
  for (size_t i = 0; i < want_decisions.size(); ++i) {
    ASSERT_EQ(want_decisions[i], got_decisions[i])
        << "decision " << i << " changed under fault injection";
  }
  EXPECT_FALSE(sys->WaitDurable().ok()) << "the barrier must report the loss";
  saw_durability_error =
      saw_durability_error || !sys->WaitDurable().ok();
  EXPECT_TRUE(saw_durability_error);
  DurabilityWatermark frozen = sys->Watermark();
  EXPECT_LT(frozen.durable, frozen.applied) << "watermark must freeze";
  EXPECT_GT(sys->wal_append_failures(), 0u);

  // Checkpoint repairs: the snapshot persists the live state (including
  // every event whose log bytes were lost) and fresh logs start clean —
  // but only until the injector trips again, so drop it first the way a
  // recovered disk would. The sticky-failed log threads are still
  // counting refusals while their queues drain in the background, so
  // settle the counter before pinning it (two equal reads an interval
  // apart) — otherwise this races and flakes under load.
  uint64_t failures_before = sys->wal_append_failures();
  for (int settle = 0; settle < 400; ++settle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now_failures = sys->wal_append_failures();
    if (now_failures == failures_before) break;
    failures_before = now_failures;
  }
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->wal_append_failures(), failures_before)
      << "failure history must survive the checkpoint";
  DurabilityWatermark repaired = sys->Watermark();
  EXPECT_EQ(repaired.durable, repaired.applied)
      << "checkpoint must restore durable == applied";

  // And the checkpointed state equals the healthy reference's.
  sys.reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> recovered,
      DurableShardedSystem::Open(faulty_dir, MakeInitialState(kWorldSeed),
                                 Options()));
  ReferenceShards reference(MakeInitialState(kWorldSeed), shards());
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) reference.ApplyEvent(e);
  }
  ExpectStateEquals(*recovered, reference,
                    "post-checkpoint fault recovery");
}

/// Crash injection across a checkpoint: pre-checkpoint state comes from
/// the snapshot cut, only the tail is at the mercy of the truncation.
TEST_P(DurableShardedTest, CrashInjectionAfterCheckpoint) {
  const uint64_t kWorldSeed = 131;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  auto batches = MakeBatches(probe, subjects, 400, 100, 151);
  const size_t cut = batches.size() / 2;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(golden, MakeInitialState(kWorldSeed),
                                   Options()));
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_OK(EvaluateBatch(sys.get(), batches[i]).status());
    }
    ASSERT_OK(sys->Checkpoint());
    for (size_t i = cut; i < batches.size(); ++i) {
      ASSERT_OK(EvaluateBatch(sys.get(), batches[i]).status());
    }
  }

  Rng rng(5353);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string trial_dir = dir_ + "/ckpt" + std::to_string(trial);
    fs::remove_all(trial_dir);
    fs::copy(golden, trial_dir);
    std::vector<fs::path> wals = WalPaths(trial_dir);
    ASSERT_EQ(wals.size(), 1u);
    fs::resize_file(wals[0], rng.Uniform(fs::file_size(wals[0]) + 1));

    ReferenceShards reference(MakeInitialState(kWorldSeed), shards());
    for (size_t i = 0; i < cut; ++i) {
      for (const AccessEvent& e : batches[i]) reference.ApplyEvent(e);
    }
    reference.RebuildStaysAtCut();
    reference.ClearAlerts();
    // Read before Open, whose recovery cut retires the log.
    ASSERT_OK(reference.ReplaySurvivingLog(wals[0].string()));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                   Options()));
    ExpectStateEquals(*sys, reference, "checkpointed crash trial");
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));
  }
}

// --- Cold tier: incremental checkpoints, retention, recovery ---------------

std::vector<fs::path> ColdSegPaths(const std::string& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cold-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".seg") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(DurableShardedTest, IncrementalCheckpointRewritesOnlyDirtyShards) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(211, 24, &subjects);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(211, 24), Options()));

  // Traffic to every shard: the first checkpoint rewrites all of them.
  auto batches = MakeBatches(probe, subjects, 200, 100, 223);
  for (const auto& batch : batches) {
    ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
  }
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), shards());
  ASSERT_OK_AND_ASSIGN(ShardManifest after_full,
                       LoadManifest(dir_ + "/MANIFEST"));

  // No traffic at all: the next cut rewrites nothing and re-references
  // every shard snapshot by name.
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);
  ASSERT_OK_AND_ASSIGN(ShardManifest after_idle,
                       LoadManifest(dir_ + "/MANIFEST"));
  EXPECT_EQ(after_idle.epoch, after_full.epoch + 1);
  for (uint32_t k = 0; k < shards(); ++k) {
    EXPECT_EQ(after_idle.shards[k].snapshot, after_full.shards[k].snapshot)
        << "idle checkpoint rewrote shard " << k;
    EXPECT_TRUE(fs::exists(dir_ + "/" + after_idle.shards[k].snapshot));
  }

  // A tick is one record that changes no snapshot: it dirties none.
  ASSERT_OK(sys->Tick(400));
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);

  // Traffic confined to one subject: exactly its shard is rewritten.
  const SubjectId lone = subjects[0];
  const uint32_t lone_shard = sys->ShardOf(lone);
  ASSERT_OK(
      EvaluateBatch(sys.get(), {AccessEvent::Observe(450, lone, 0)}).status());
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 1u);
  ASSERT_OK_AND_ASSIGN(ShardManifest after_lone,
                       LoadManifest(dir_ + "/MANIFEST"));
  for (uint32_t k = 0; k < shards(); ++k) {
    if (k == lone_shard) {
      EXPECT_NE(after_lone.shards[k].snapshot, after_idle.shards[k].snapshot);
    } else {
      EXPECT_EQ(after_lone.shards[k].snapshot, after_idle.shards[k].snapshot)
          << "clean shard " << k << " was rewritten";
    }
  }
}

/// A replica logs shipped records through its control slot, in stream
/// order, so its checkpoint must still rewrite exactly the shards the
/// records belong to, and a restart must recover them.
TEST_P(DurableShardedTest, ReplicatedRecordsDirtyTheirShards) {
  const uint64_t kWorldSeed = 307;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 16, &subjects);
  const std::string primary_dir = dir_ + "/primary";
  const std::string replica_dir = dir_ + "/replica";
  fs::create_directories(primary_dir);
  fs::create_directories(replica_dir);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> primary,
      DurableShardedSystem::Open(primary_dir, MakeInitialState(kWorldSeed, 16),
                                 Options()));
  // Two subjects' events, so at most two shards take records.
  std::vector<AccessEvent> events;
  for (const auto& batch : MakeBatches(probe, subjects, 200, 50, 311)) {
    for (const AccessEvent& e : batch) {
      if (e.subject == subjects[0] || e.subject == subjects[1]) {
        events.push_back(e);
      }
    }
  }
  ASSERT_FALSE(events.empty());
  std::set<uint32_t> touched;
  for (const AccessEvent& e : events) touched.insert(primary->ShardOf(e.subject));
  ASSERT_OK(EvaluateBatch(primary.get(), events).status());
  ASSERT_OK(primary->Tick(100000));
  ASSERT_OK(primary->WaitDurable());
  ASSERT_OK_AND_ASSIGN(DurableShardedSystem::ReplicationSlice slice,
                       primary->ReadLogRecords(0, 1 << 20));
  ASSERT_EQ(events.size() + 1, slice.records.size());
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> replica,
        DurableShardedSystem::Open(replica_dir,
                                   MakeInitialState(kWorldSeed, 16),
                                   Options()));
    ASSERT_OK(replica->ApplyReplicatedRecords(0, slice.records).status());
    ASSERT_OK(replica->Checkpoint());
    EXPECT_EQ(touched.size(), replica->last_checkpoint_dirty_segments());
  }
  ASSERT_OK(primary->Checkpoint());
  EXPECT_EQ(touched.size(), primary->last_checkpoint_dirty_segments());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> reopened,
      DurableShardedSystem::Open(replica_dir, SystemState(), Options()));
  EXPECT_EQ(0u, reopened->recovery().replayed_records);
  EXPECT_EQ(slice.records.size(), reopened->Watermark().durable);
  for (uint32_t k = 0; k < shards(); ++k) {
    EXPECT_EQ(primary->shard_movements(k).history().size(),
              reopened->shard_movements(k).history().size())
        << "shard " << k;
  }
}

/// Regression: a checkpoint whose retention pass dropped NOTHING used to
/// leave cold_files_ full of moved-from entries (the survivors vector
/// was only written back when something dropped), so persisting the
/// sealed segments dereferenced null — this exact configuration (a
/// horizon far wider than the data) crashed the soak server.
TEST_P(DurableShardedTest, CheckpointPersistsColdFilesWhenHorizonDropsNothing) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(229, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 4;
  opt.retention.horizon = Chronon{1} << 40;  // Keeps everything.
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(229, 24), opt));
    auto batches = MakeBatches(probe, subjects, 300, 60, 233);
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
      ASSERT_OK(sys->Checkpoint());
    }
    EXPECT_GT(sys->cold_segment_count(), 0u);
    EXPECT_EQ(sys->retention_dropped_segments(), 0u);
    EXPECT_EQ(sys->dropped_events(), 0u);
    EXPECT_FALSE(ColdSegPaths(dir_).empty());
  }
  // The committed cut names those segment files; recovery loads them.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(229, 24), opt));
  EXPECT_GT(sys->cold_segment_count(), 0u);
  EXPECT_EQ(sys->dropped_events(), 0u);
}

TEST_P(DurableShardedTest, RetentionTierSealsCompactsAndDrops) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(239, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 8;
  opt.retention.horizon = 40;
  opt.retention.compaction_fanin = 3;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(239, 24), opt));
  // A checkpoint after every batch; the stream spans several horizon
  // windows, so at 4 shards too some window collects `fanin` seals of
  // one shard (compaction) while older windows age out (drops).
  auto batches = MakeBatches(probe, subjects, 1200, 50, 241);
  uint64_t total_fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    total_fed += batch.size();
    ASSERT_OK(sys->Checkpoint());
  }
  EXPECT_GT(sys->cold_segment_count(), 0u);
  EXPECT_GT(sys->cold_bytes(), 0u);
  EXPECT_GT(sys->compaction_runs(), 0u);
  EXPECT_GT(sys->retention_dropped_segments(), 0u);
  EXPECT_GT(sys->dropped_events(), 0u);
  // Compaction leaves no run of `fanin` consecutive segments whose stays
  // end in the same horizon-wide window (such a run would have merged).
  const size_t fanin = opt.retention.compaction_fanin;
  auto window = [&opt](const std::shared_ptr<const ColdSegment>& seg) {
    return seg->max_exit / opt.retention.horizon;
  };
  for (uint32_t k = 0; k < shards(); ++k) {
    const auto& segs = sys->shard_movements(k).cold_segments();
    for (size_t i = 0; i + fanin <= segs.size(); ++i) {
      size_t same = 1;
      while (same < fanin && window(segs[i + same]) == window(segs[i])) {
        ++same;
      }
      EXPECT_LT(same, fanin) << "shard " << k << " left a full run at " << i;
    }
  }
  // Dropped events left the store but not the ledger arithmetic:
  // total_events still counts them.
  uint64_t total_recorded = 0;
  for (uint32_t k = 0; k < shards(); ++k) {
    total_recorded += sys->shard_movements(k).total_events();
  }
  uint64_t hot = 0;
  for (uint32_t k = 0; k < shards(); ++k) {
    hot += sys->shard_movements(k).history().size();
  }
  EXPECT_LT(hot, total_recorded) << "nothing was ever sealed or dropped";
}

/// The tentpole equivalence: with tiering + retention on, every answer
/// inside the retained window matches a runtime that never seals or
/// drops — decision streams included — live AND after a crash-recovery.
TEST_P(DurableShardedTest, TieredAnswersMatchUnboundedWithinRetainedWindow) {
  const uint64_t kSeed = 251;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kSeed, 24, &subjects);
  const std::string tiered_dir = dir_ + "/tiered";
  const std::string unbounded_dir = dir_ + "/unbounded";
  fs::create_directories(tiered_dir);
  fs::create_directories(unbounded_dir);

  DurableShardedOptions tiered_opt = Options();
  tiered_opt.retention.max_hot_events = 8;
  tiered_opt.retention.horizon = 120;
  tiered_opt.retention.compaction_fanin = 3;

  auto batches = MakeBatches(probe, subjects, 600, 60, 257);
  Chronon newest = 0;
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) newest = std::max(newest, e.time);
  }

  auto compare_windows = [&](DurableShardedSystem* tiered,
                             DurableShardedSystem* unbounded,
                             const char* context) {
    uint64_t tiered_total = 0;
    uint64_t unbounded_total = 0;
    for (uint32_t k = 0; k < shards(); ++k) {
      tiered_total += tiered->shard_movements(k).total_events();
      unbounded_total += unbounded->shard_movements(k).total_events();
    }
    EXPECT_EQ(tiered_total, unbounded_total) << context;
    const Chronon cutoff = newest - tiered_opt.retention.horizon;
    for (SubjectId s : subjects) {
      const uint32_t k = tiered->ShardOf(s);
      for (Chronon t = cutoff; t <= newest; t += 7) {
        EXPECT_EQ(tiered->shard_movements(k).LocationAt(s, t),
                  unbounded->shard_movements(k).LocationAt(s, t))
            << context << ": subject " << s << " at t=" << t;
      }
      EXPECT_EQ(tiered->shard_movements(k).CurrentLocation(s),
                unbounded->shard_movements(k).CurrentLocation(s))
          << context << ": subject " << s;
    }
  };

  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> tiered,
        DurableShardedSystem::Open(tiered_dir, MakeInitialState(kSeed, 24),
                                   tiered_opt));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> unbounded,
        DurableShardedSystem::Open(unbounded_dir, MakeInitialState(kSeed, 24),
                                   Options()));
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(std::vector<Decision> tiered_decisions,
                           EvaluateBatch(tiered.get(), batches[i]));
      ASSERT_OK_AND_ASSIGN(std::vector<Decision> unbounded_decisions,
                           EvaluateBatch(unbounded.get(), batches[i]));
      ASSERT_EQ(tiered_decisions.size(), unbounded_decisions.size());
      for (size_t j = 0; j < tiered_decisions.size(); ++j) {
        EXPECT_EQ(tiered_decisions[j].granted, unbounded_decisions[j].granted)
            << "batch " << i << ", event " << j;
      }
      // Checkpoint mid-stream (not after the last batch) so the tiered
      // directory crashes with BOTH sealed segments and a live WAL tail.
      if (i + 1 == batches.size() / 2) {
        ASSERT_OK(tiered->Checkpoint());
        ASSERT_OK(tiered->Checkpoint());  // Second cut: seals + compacts.
        ASSERT_OK(unbounded->Checkpoint());
      }
    }
    ASSERT_GT(tiered->cold_segment_count(), 0u);
    compare_windows(tiered.get(), unbounded.get(), "live");
    // "Crash": destroy without a final checkpoint.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> tiered,
      DurableShardedSystem::Open(tiered_dir, MakeInitialState(kSeed, 24),
                                 tiered_opt));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> unbounded,
      DurableShardedSystem::Open(unbounded_dir, MakeInitialState(kSeed, 24),
                                 Options()));
  EXPECT_GT(tiered->cold_segment_count(), 0u);
  compare_windows(tiered.get(), unbounded.get(), "recovered");
}

/// Crash-matrix extension for the cold tier: a committed cut that names
/// a segment file the directory lost (or holds only a torn prefix of)
/// must refuse to open — never recover a shorter history silently.
TEST_P(DurableShardedTest, TornOrMissingColdSegmentFailsRecovery) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(263, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 4;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt));
    auto batches = MakeBatches(probe, subjects, 300, 60, 269);
    for (const auto& batch : batches) {
      ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
      ASSERT_OK(sys->Checkpoint());
    }
    ASSERT_GT(sys->cold_segment_count(), 0u);
  }
  std::vector<fs::path> cold = ColdSegPaths(dir_);
  ASSERT_FALSE(cold.empty());
  const fs::path victim = cold.front();
  std::string original;
  {
    std::ifstream in(victim, std::ios::binary);
    original.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(original.size(), 2u);

  // Torn at every-other byte offset: always a hard error.
  for (size_t len = 0; len < original.size(); len += 2) {
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out.write(original.data(), static_cast<std::streamsize>(len));
    }
    EXPECT_FALSE(DurableShardedSystem::Open(dir_, MakeInitialState(263, 24),
                                            opt)
                     .ok())
        << "opened with cold segment torn at " << len << " bytes";
  }
  // Missing outright: also a hard error.
  fs::remove(victim);
  EXPECT_FALSE(
      DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt).ok());
  // Restored byte-exact: opens again.
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(original.data(), static_cast<std::streamsize>(original.size()));
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt));
  EXPECT_GT(sys->cold_segment_count(), 0u);
}

/// checkpoint.dirty_segments must count exactly the snapshot rewrites,
/// and the tier counters/gauges must agree with the accessors — the
/// same reconciliation ci.sh's soak scrape asserts over the wire.
TEST_P(DurableShardedTest, RetentionTelemetryReconciles) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(271, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 8;
  opt.retention.horizon = 40;
  opt.retention.compaction_fanin = 3;
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(271, 24), opt));

  Counter* dirty = registry.GetCounter("checkpoint.dirty_segments");
  // The fresh directory's epoch-0 cut wrote every shard.
  uint64_t expected_dirty = dirty->value();
  EXPECT_EQ(expected_dirty, sys->last_checkpoint_dirty_segments());

  auto batches = MakeBatches(probe, subjects, 600, 50, 277);
  for (const auto& batch : batches) {
    ASSERT_OK(EvaluateBatch(sys.get(), batch).status());
    ASSERT_OK(sys->Checkpoint());
    expected_dirty += sys->last_checkpoint_dirty_segments();
  }
  // An idle checkpoint rewrites nothing and must not move the counter.
  const uint64_t before_idle = dirty->value();
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);
  EXPECT_EQ(dirty->value(), before_idle);

  EXPECT_EQ(dirty->value(), expected_dirty);
  EXPECT_EQ(registry.GetCounter("compaction.runs")->value(),
            sys->compaction_runs());
  EXPECT_GT(sys->compaction_runs(), 0u);
  EXPECT_EQ(registry.GetCounter("retention.dropped_segments")->value(),
            sys->retention_dropped_segments());
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GetGauge("storage.cold_segments")->value()),
      sys->cold_segment_count());
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GetGauge("storage.cold_bytes")->value()),
      sys->cold_bytes());
#if defined(__linux__)
  EXPECT_GT(registry.GetGauge("storage.resident_bytes")->value(), 0);
#endif
}

TEST(DurableShardedPositionTest, PositionsSurviveAPrimaryRestart) {
  // A 2-shard primary with a logged tail restarts. Its position must
  // carry on from its pre-restart value — the recovery cut folds the
  // tail into the snapshots and commits the floor in the MANIFEST — so a
  // replica that resumes at its old position gets exactly the records
  // appended after the restart, and one below the floor is told to
  // resync. A position that restarted at 0 would let a replica at
  // position P silently skip the first P records of the new log.
  const std::string dir = ::testing::TempDir() + "/ltam_dsh_positions";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(61, 16, &subjects);
  auto batches = MakeBatches(probe, subjects, 300, 60, 67);
  ASSERT_GE(batches.size(), 4u);
  DurableShardedOptions options;
  options.num_shards = 2;
  DurabilityWatermark before;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir, MakeInitialState(61, 16), options));
    ASSERT_OK(EvaluateBatch(sys.get(), batches[0]).status());
    ASSERT_OK(sys->Checkpoint());
    for (size_t i = 1; i < 3; ++i) {
      ASSERT_OK(EvaluateBatch(sys.get(), batches[i]).status());
    }
    ASSERT_OK(sys->WaitDurable());
    before = sys->Watermark();
    // "Crash": no checkpoint; the tail stays in the log.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir, MakeInitialState(61, 16), options));
  EXPECT_GT(sys->recovery().replayed_records, 0u);
  EXPECT_GT(before.durable, 0u);
  EXPECT_EQ(before.durable, sys->Watermark().durable);
  EXPECT_EQ(before.durable, sys->Watermark().applied);

  ASSERT_OK(EvaluateBatch(sys.get(), batches[3]).status());
  ASSERT_OK(sys->WaitDurable());
  // The batch's records, in shard order.
  std::vector<std::string> expected;
  for (uint32_t k = 0; k < 2; ++k) {
    for (const AccessEvent& e : batches[3]) {
      if (sys->ShardOf(e.subject) == k) expected.push_back(WalLine(e));
    }
  }
  ASSERT_OK_AND_ASSIGN(DurableShardedSystem::ReplicationSlice slice,
                       sys->ReadLogRecords(before.durable, 1 << 20));
  EXPECT_EQ(expected, slice.records);
  EXPECT_EQ(before.durable + expected.size(), slice.next);
  Result<DurableShardedSystem::ReplicationSlice> stale =
      sys->ReadLogRecords(before.durable - 1, 1 << 20);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsFailedPrecondition());
  EXPECT_NE(std::string::npos,
            stale.status().ToString().find("resync required"))
      << stale.status().ToString();
  // The floor is what the MANIFEST committed.
  ASSERT_OK_AND_ASSIGN(ShardManifest manifest,
                       LoadManifest(dir + "/MANIFEST"));
  EXPECT_EQ(before.durable, manifest.floor);
  sys.reset();
  fs::remove_all(dir);
}

/// Name -> bytes of every file in `dir`.
std::map<std::string, std::string> ReadDirectory(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

// A durable directory written by the release before the shared line
// codec (tests/data/durable_v1) must open unchanged. The fixture was made
// by a one-off program linked against that release's library: it opened
// a fresh 2-shard directory (retention.max_hot_events = 4, horizon
// 2^40) whose state holds every base-snapshot record type — a 3x3 grid
// with an escaped description and a boundary, four subjects (escaped
// names, a supervisor, a group, a role, an escaped attribute), one
// authorization per subject and room, a derived authorization with two
// spent entries, a revoked one with a spent entry, and a rule with an
// escaped label. It applied eight events, checkpointed (sealing one
// cold segment and committing nonzero floors), applied entries, exits,
// observations and a tick, and closed without a checkpoint: that is
// before/, a version-1 directory with one WAL per shard. It then opened
// a copy of before/ with the same options, which replayed 9 records and
// committed its recovery cut: that directory, closed, is after/. Since
// the runtime keeps one WAL, the recovery cut writes the version-2
// layout, so two of after/'s files were edited by hand and are pinned
// literally below: the MANIFEST (one WAL, whose floor is the sum of the
// shard floors plus the replayed records) and the WAL's name. Every
// snapshot and cold segment is compared byte for byte as written.
TEST(DurableFormatTest, DirectoryWrittenBeforeTheSharedCodecOpensUnchanged) {
  const fs::path fixture = fs::path(LTAM_TEST_DATA_DIR) / "durable_v1";
  const fs::path dir = fs::path(::testing::TempDir()) / "ltam_dsh_format_v1";
  fs::remove_all(dir);
  fs::copy(fixture / "before", dir);
  DurableShardedOptions options;
  options.num_shards = 2;
  options.retention.max_hot_events = 4;
  options.retention.horizon = Chronon{1} << 40;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir.string(), SystemState(), options));
    EXPECT_EQ(9u, sys->recovery().replayed_records);
    EXPECT_EQ(2u, sys->num_shards());
  }
  const std::map<std::string, std::string> want =
      ReadDirectory(fixture / "after");
  const std::map<std::string, std::string> got = ReadDirectory(dir);
  std::vector<std::string> want_names;
  std::vector<std::string> got_names;
  for (const auto& [name, bytes] : want) want_names.push_back(name);
  for (const auto& [name, bytes] : got) got_names.push_back(name);
  ASSERT_EQ(want_names, got_names);
  for (const auto& [name, bytes] : want) {
    EXPECT_EQ(bytes, got.at(name)) << name;
  }
  // The two edited expectations: floor 17 is the shard floors 6 + 2 plus
  // the 9 replayed records (11 + 6 per shard).
  EXPECT_EQ(
      "manifest\t2\t2\t2\n"
      "base\tbase-2.snap\n"
      "wal\tevents-2.wal\t17\n"
      "shard\t0\tshard-0-2.snap\n"
      "cold\t0\t0\tcold-0-0.seg\tcold-0-1.seg\n"
      "shard\t1\tshard-1-2.snap\n"
      "cold\t1\t0\tcold-1-0.seg\n"
      "commit\t7\n",
      got.at("MANIFEST"));
  EXPECT_EQ(1u, got.count("events-2.wal"));
  fs::remove_all(dir);
}

// A clean version-1 directory (every shard WAL empty, as a clean
// shutdown leaves it) still commits exactly one cut at Open, in the
// one-WAL layout, and a second Open commits none.
TEST(DurableFormatTest, CleanVersionOneDirectoryCommitsOneCut) {
  const fs::path fixture = fs::path(LTAM_TEST_DATA_DIR) / "durable_v1";
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ltam_dsh_format_v1_clean";
  fs::remove_all(dir);
  fs::copy(fixture / "before", dir);
  fs::resize_file(dir / "events-0-1.wal", 0);
  fs::resize_file(dir / "events-1-1.wal", 0);
  DurableShardedOptions options;
  options.num_shards = 2;
  for (int boot = 0; boot < 2; ++boot) {
    SCOPED_TRACE("boot " + std::to_string(boot));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir.string(), SystemState(), options));
    EXPECT_EQ(0u, sys->recovery().replayed_records);
    EXPECT_EQ(2u, sys->epoch()) << "one cut, at the first boot only";
    EXPECT_EQ(8u, sys->Watermark().durable) << "the shard floors 6 + 2";
  }
  ASSERT_OK_AND_ASSIGN(ShardManifest manifest,
                       LoadManifest((dir / "MANIFEST").string()));
  EXPECT_EQ(2u, manifest.epoch);
  EXPECT_EQ("events-2.wal", manifest.wal);
  EXPECT_EQ(8u, manifest.floor);
  EXPECT_TRUE(manifest.v1_shard_wals.empty());
  EXPECT_EQ((std::vector<fs::path>{dir / "events-2.wal"}),
            WalPaths(dir.string()));
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, DurableShardedTest, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return std::to_string(info.param) + "shard";
    });

}  // namespace
}  // namespace ltam
