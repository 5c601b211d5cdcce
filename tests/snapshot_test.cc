// Copyright 2026 The LTAM Authors.
// Whole-system snapshot round-trip tests, the byte-for-byte pin of the
// line writer against the vector-of-fields rendering it replaced, and the
// strict reader's refusals.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/inaccessible.h"
#include "sim/graph_gen.h"
#include "storage/codec.h"
#include "test_util.h"
#include "util/string_util.h"

namespace ltam {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ltam_snap_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            ".snap";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

SystemState MakeRichState() {
  SystemState state;
  state.graph = MakeNtuCampusGraph().ValueOrDie();
  SubjectId alice = state.profiles.AddSubject("Alice").ValueOrDie();
  SubjectId bob = state.profiles.AddSubject("Bob").ValueOrDie();
  EXPECT_TRUE(state.profiles.SetSupervisor(alice, bob).ok());
  EXPECT_TRUE(state.profiles.AddToGroup(alice, "cais-lab").ok());
  EXPECT_TRUE(state.profiles.AssignRole(bob, "professor").ok());
  EXPECT_TRUE(state.profiles.SetAttribute(alice, "office", "N4-02c").ok());

  LocationId cais = state.graph.Find("CAIS").ValueOrDie();
  LocationId go = state.graph.Find("SCE.GO").ValueOrDie();
  EXPECT_TRUE(state.graph.SetBoundary(go, Polygon::Rect(0, 0, 10, 8)).ok());
  EXPECT_TRUE(state.graph.SetDescription(cais, "research centre").ok());

  AuthId a1 = state.auth_db.Add(
      LocationTemporalAuthorization::Make(
          TimeInterval(5, 20), TimeInterval(15, 50),
          LocationAuthorization{alice, cais}, 2)
          .ValueOrDie());
  AuthId a2 = state.auth_db.AddDerived(
      LocationTemporalAuthorization::Make(
          TimeInterval(5, 20), TimeInterval(15, 50),
          LocationAuthorization{bob, cais}, 2)
          .ValueOrDie(),
      0);
  EXPECT_TRUE(state.auth_db.RecordEntry(a1).ok());
  EXPECT_TRUE(state.auth_db.Revoke(a2).ok());

  AuthorizationRule rule;
  rule.id = 0;
  rule.valid_from = 7;
  rule.base = a1;
  rule.op_entry = TemporalOperatorPtr(new IntersectionOp(TimeInterval(10, 30)));
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  rule.op_location = LocationOperatorPtr(new AllRouteFromOp("SCE.GO"));
  rule.exp_n = CountExpr::Parse("min(n, 2)").ValueOrDie();
  rule.label = "r2";
  state.rules.push_back(rule);

  EXPECT_TRUE(state.movements.RecordMovement(10, alice, go).ok());
  EXPECT_TRUE(state.movements.RecordMovement(20, alice, kInvalidLocation).ok());
  return state;
}

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  SystemState state = MakeRichState();
  ASSERT_OK(SaveSnapshot(state, path_));
  ASSERT_OK_AND_ASSIGN(SystemState loaded, LoadSnapshot(path_));

  // Graph.
  EXPECT_EQ(loaded.graph.size(), state.graph.size());
  EXPECT_OK(loaded.graph.Validate());
  ASSERT_OK_AND_ASSIGN(LocationId cais, loaded.graph.Find("CAIS"));
  EXPECT_EQ(loaded.graph.location(cais).description, "research centre");
  ASSERT_OK_AND_ASSIGN(LocationId go, loaded.graph.Find("SCE.GO"));
  EXPECT_TRUE(loaded.graph.location(go).boundary.has_value());
  EXPECT_TRUE(loaded.graph.location(go).is_entry);
  EXPECT_EQ(loaded.graph.Edges().size(), state.graph.Edges().size());

  // Profiles.
  ASSERT_OK_AND_ASSIGN(SubjectId alice, loaded.profiles.Find("Alice"));
  ASSERT_OK_AND_ASSIGN(SubjectId bob, loaded.profiles.Find("Bob"));
  EXPECT_EQ(*loaded.profiles.SupervisorOf(alice), bob);
  EXPECT_TRUE(loaded.profiles.IsInGroup(alice, "cais-lab"));
  EXPECT_TRUE(loaded.profiles.HasRole(bob, "professor"));
  EXPECT_EQ(*loaded.profiles.GetAttribute(alice, "office"), "N4-02c");

  // Authorizations: ids, ledger, revocation, provenance.
  EXPECT_EQ(loaded.auth_db.size(), 2u);
  EXPECT_EQ(loaded.auth_db.active_size(), 1u);
  EXPECT_EQ(loaded.auth_db.record(0).entries_used, 1);
  EXPECT_EQ(loaded.auth_db.record(0).auth, state.auth_db.record(0).auth);
  EXPECT_TRUE(loaded.auth_db.record(1).revoked);
  EXPECT_EQ(loaded.auth_db.record(1).origin, AuthOrigin::kDerived);
  EXPECT_EQ(loaded.auth_db.record(1).source_rule, 0u);

  // Rules reconstructed through the registries.
  ASSERT_EQ(loaded.rules.size(), 1u);
  EXPECT_EQ(loaded.rules[0].valid_from, 7);
  EXPECT_EQ(loaded.rules[0].base, 0u);
  EXPECT_EQ(loaded.rules[0].op_entry->ToString(), "INTERSECTION([10, 30])");
  EXPECT_EQ(loaded.rules[0].op_subject->ToString(), "Supervisor_Of");
  EXPECT_EQ(loaded.rules[0].op_location->ToString(),
            "all_route_from(SCE.GO)");
  EXPECT_EQ(loaded.rules[0].exp_n->text(), "min(n, 2)");
  EXPECT_EQ(loaded.rules[0].label, "r2");

  // Movements.
  EXPECT_EQ(loaded.movements.history().size(), 2u);
  EXPECT_EQ(loaded.movements.LocationAt(alice, 15), go);
  EXPECT_EQ(loaded.movements.LocationAt(alice, 25), kInvalidLocation);
}

TEST_F(SnapshotTest, LoadedStateIsFunctionallyEquivalent) {
  // The loaded system must compute the same inaccessible set.
  SystemState state;
  state.graph = MakeFig4Graph().ValueOrDie();
  SubjectId alice = state.profiles.AddSubject("Alice").ValueOrDie();
  auto grant = [&state, alice](const std::string& name, Chronon es,
                               Chronon ee, Chronon xs, Chronon xe) {
    state.auth_db.Add(LocationTemporalAuthorization::Make(
                          TimeInterval(es, ee), TimeInterval(xs, xe),
                          LocationAuthorization{
                              alice, state.graph.Find(name).ValueOrDie()},
                          1)
                          .ValueOrDie());
  };
  grant("A", 2, 35, 20, 50);
  grant("B", 40, 60, 55, 80);
  grant("C", 38, 45, 70, 90);
  grant("D", 5, 25, 10, 30);
  ASSERT_OK(SaveSnapshot(state, path_));
  ASSERT_OK_AND_ASSIGN(SystemState loaded, LoadSnapshot(path_));
  ASSERT_OK_AND_ASSIGN(
      InaccessibleResult before,
      FindInaccessible(state.graph, state.graph.root(), alice,
                       state.auth_db));
  ASSERT_OK_AND_ASSIGN(
      InaccessibleResult after,
      FindInaccessible(loaded.graph, loaded.graph.root(), alice,
                       loaded.auth_db));
  EXPECT_EQ(before.inaccessible, after.inaccessible);
}

/// One line as a tag and a vector of std::to_string fields, escaped and
/// joined by tabs: the rendering the snapshot writer used before it
/// rendered fields straight into its buffer, kept here as the reference
/// its bytes must match.
struct ReferenceRecord {
  std::string type;
  std::vector<std::string> fields;
};

std::string EncodeReference(const ReferenceRecord& rec) {
  std::string out;
  AppendEscapedField(rec.type, &out);
  for (const std::string& field : rec.fields) {
    out += '\t';
    AppendEscapedField(field, &out);
  }
  return out;
}

std::string ReferenceMoveLine(const MovementEvent& ev) {
  return EncodeReference(
             {"move",
              {std::to_string(ev.time), std::to_string(ev.subject),
               ev.to == kInvalidLocation ? "out" : std::to_string(ev.to)}}) +
         "\n";
}

std::string ReferenceSnapshot(const SystemState& state) {
  std::string out;
  auto emit = [&out](const ReferenceRecord& rec) {
    out += EncodeReference(rec);
    out += '\n';
  };
  auto i64 = [](int64_t v) { return std::to_string(v); };
  auto u32 = [](uint32_t v) { return std::to_string(v); };
  const MultilevelLocationGraph& g = state.graph;
  emit({"graph-root", {g.location(g.root()).name}});
  for (LocationId id = 1; id < g.size(); ++id) {
    const Location& loc = g.location(id);
    emit({"loc",
          {u32(id), loc.name, loc.IsComposite() ? "composite" : "primitive",
           u32(loc.parent), loc.is_entry ? "1" : "0", loc.description}});
    if (loc.boundary.has_value()) {
      ReferenceRecord rec{"boundary", {u32(id)}};
      for (const Point& p : loc.boundary->ring()) {
        rec.fields.push_back(StrFormat("%.17g", p.x));
        rec.fields.push_back(StrFormat("%.17g", p.y));
      }
      emit(rec);
    }
  }
  for (const auto& [a, b] : g.Edges()) emit({"edge", {u32(a), u32(b)}});
  const UserProfileDatabase& profiles = state.profiles;
  for (SubjectId s : profiles.AllSubjects()) {
    emit({"subject", {u32(s), profiles.subject(s).name}});
  }
  for (SubjectId s : profiles.AllSubjects()) {
    const Subject& subj = profiles.subject(s);
    if (subj.supervisor != kInvalidSubject) {
      emit({"supervisor", {u32(s), u32(subj.supervisor)}});
    }
    for (const std::string& group : subj.groups) {
      emit({"group", {u32(s), group}});
    }
    for (const std::string& role : subj.roles) emit({"role", {u32(s), role}});
    for (const auto& [key, value] : subj.attributes) {
      emit({"attr", {u32(s), key, value}});
    }
  }
  const AuthorizationDatabase& db = state.auth_db;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    emit({"auth",
          {u32(id), i64(rec.auth.entry_duration().start()),
           i64(rec.auth.entry_duration().end()),
           i64(rec.auth.exit_duration().start()),
           i64(rec.auth.exit_duration().end()), u32(rec.auth.subject()),
           u32(rec.auth.location()), i64(rec.auth.max_entries()),
           rec.origin == AuthOrigin::kDerived ? "derived" : "explicit",
           u32(rec.source_rule), rec.revoked ? "1" : "0",
           i64(rec.entries_used)}});
  }
  for (const AuthorizationRule& rule : state.rules) {
    emit({"rule",
          {i64(rule.valid_from), u32(rule.base),
           rule.op_entry ? rule.op_entry->ToString() : "WHENEVER",
           rule.op_exit ? rule.op_exit->ToString() : "WHENEVER",
           rule.op_subject ? rule.op_subject->ToString() : "Identity",
           rule.op_location ? rule.op_location->ToString() : "Identity",
           rule.exp_n.has_value() ? rule.exp_n->text() : "n", rule.label}});
  }
  for (const MovementEvent& ev : state.movements.history()) {
    out += ReferenceMoveLine(ev);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(SnapshotTest, EncodersMatchTheRecordRendering) {
  // Every record type, plus the values whose rendering could drift:
  // escaped characters, fractional coordinates, negative times, the
  // unlimited-entries sentinel and the invalid-rule id.
  SystemState state = MakeRichState();
  LocationId go = state.graph.Find("SCE.GO").ValueOrDie();
  LocationId cais = state.graph.Find("CAIS").ValueOrDie();
  ASSERT_OK(state.graph.SetDescription(go, "tab\there, back\\slash"));
  ASSERT_OK(state.graph.SetBoundary(
      cais, Polygon::Rect(0.1, -2.5, 1e-3, 3.0000000000000004)));
  ASSERT_OK_AND_ASSIGN(SubjectId carol,
                       state.profiles.AddSubject("Carol\nthe second"));
  ASSERT_OK(state.profiles.SetAttribute(carol, "note", "a\tb\rc"));
  ASSERT_OK(state.profiles.AddToGroup(carol, "night shift"));
  ASSERT_OK_AND_ASSIGN(
      LocationTemporalAuthorization open_ended,
      LocationTemporalAuthorization::Make(TimeInterval(-40, 20),
                                          TimeInterval(-30, 90),
                                          LocationAuthorization{carol, go}));
  state.auth_db.Add(open_ended);
  ASSERT_OK_AND_ASSIGN(
      LocationTemporalAuthorization derived,
      LocationTemporalAuthorization::Make(TimeInterval(0, 60),
                                          TimeInterval(0, 90),
                                          LocationAuthorization{carol, cais},
                                          3));
  AuthId spent = state.auth_db.AddDerived(derived, 0);
  ASSERT_OK(state.auth_db.RecordEntry(spent));
  ASSERT_OK(state.auth_db.RecordEntry(spent));
  ASSERT_OK(state.movements.RecordMovement(-7, carol, go));
  ASSERT_OK(state.movements.RecordMovement(30, carol, kInvalidLocation));
  // Enough history that both files outgrow the encoders' 64 KiB buffer.
  for (Chronon t = 40; t < 12040; t += 2) {
    ASSERT_OK(state.movements.RecordMovement(t, carol, go));
    ASSERT_OK(state.movements.RecordMovement(t + 1, carol, kInvalidLocation));
  }

  ASSERT_OK(SaveSnapshot(state, path_));
  const std::string want = ReferenceSnapshot(state);
  EXPECT_EQ(want, ReadFile(path_));
  EXPECT_GT(want.size(), size_t{2} << 16);
  EXPECT_NE(std::string::npos, want.find("\nboundary\t"));
  EXPECT_NE(std::string::npos, want.find("\tout\n"));

  ASSERT_OK(SaveMovements(state.movements, path_));
  std::string moves;
  for (const MovementEvent& ev : state.movements.history()) {
    moves += ReferenceMoveLine(ev);
  }
  EXPECT_EQ(moves, ReadFile(path_));
  EXPECT_GT(moves.size(), size_t{2} << 16);
  ASSERT_OK(SaveMovements(MovementDatabase(), path_));
  EXPECT_EQ("", ReadFile(path_));
}

TEST_F(SnapshotTest, SaveToBadPathFails) {
  SystemState state;
  state.graph = MakeFig4Graph().ValueOrDie();
  EXPECT_TRUE(SaveSnapshot(state, "/nonexistent/dir/x.snap").IsIOError());
}

TEST_F(SnapshotTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadSnapshot("/nonexistent/x.snap").status().IsIOError());
}

TEST_F(SnapshotTest, LoadRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "loc\t1\tX\tprimitive\t0\t0\t\n";  // Before graph-root.
  }
  EXPECT_TRUE(LoadSnapshot(path_).status().IsParseError());
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "graph-root\tG\n";
    out << "mystery-record\t1\n";
  }
  EXPECT_TRUE(LoadSnapshot(path_).status().IsParseError());
}

/// A small valid snapshot; each probe below appends one record to it.
constexpr char kProbeHead[] =
    "graph-root\tG\n"
    "loc\t1\tA\tprimitive\t0\t1\t\n"
    "loc\t2\tB\tprimitive\t0\t0\t\n"
    "subject\t0\tAlice\n"
    "subject\t1\tBob\n";

std::string AuthLine(const std::string& subject, const std::string& origin,
                     const std::string& revoked,
                     const std::string& max_entries = "5",
                     const std::string& used = "0") {
  return "auth\t0\t0\t50\t0\t90\t" + subject + "\t1\t" + max_entries +
         "\t" + origin + "\t4294967295\t" + revoked + "\t" + used + "\n";
}

class SnapshotStrictnessTest : public SnapshotTest {
 protected:
  Status Load(const std::string& records) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << kProbeHead << records;
    }
    return LoadSnapshot(path_).status();
  }

  /// `good` loads; `bad`, which differs in one field, is a ParseError.
  void ExpectRefused(const std::string& good, const std::string& bad) {
    EXPECT_OK(Load(good));
    const Status refused = Load(bad);
    EXPECT_TRUE(refused.IsParseError()) << refused.ToString();
    EXPECT_NE(std::string::npos, refused.message().find(path_))
        << "the error names the file: " << refused.ToString();
  }
};

TEST_F(SnapshotStrictnessTest, AuthSubjectMustFitAnId) {
  // 4294967296 wrapped to subject 0 before ids were range-checked.
  ExpectRefused(AuthLine("0", "explicit", "0"),
                AuthLine("4294967296", "explicit", "0"));
  EXPECT_TRUE(Load(AuthLine("-1", "explicit", "0")).IsParseError());
}

TEST_F(SnapshotStrictnessTest, LocKindIsCompositeOrPrimitive) {
  ExpectRefused("loc\t3\tC\tcomposite\t0\t0\t\n",
                "loc\t3\tC\tcompositX\t0\t0\t\n");
  EXPECT_TRUE(Load("loc\t3\tC\tprimitive\t0\t2\t\n").IsParseError())
      << "the entry flag is 0 or 1";
}

TEST_F(SnapshotStrictnessTest, AuthOriginIsDerivedOrExplicit) {
  ExpectRefused(AuthLine("1", "derived", "0"), AuthLine("1", "derivd", "0"));
}

TEST_F(SnapshotStrictnessTest, AuthRevokedFlagIsZeroOrOne) {
  ExpectRefused(AuthLine("1", "explicit", "1"),
                AuthLine("1", "explicit", "7"));
}

TEST_F(SnapshotStrictnessTest, EdgeHasExactlyItsFields) {
  ExpectRefused("edge\t1\t2\n", "edge\t1\t2\t99\n");
  EXPECT_TRUE(Load("edge\t1\n").IsParseError());
}

TEST_F(SnapshotStrictnessTest, MoveHasExactlyItsFields) {
  ExpectRefused("move\t5\t1\t2\n", "move\t5\t1\t2\textra\n");
  ExpectRefused("move\t5\t1\t2\nmove\t6\t1\tout\n",
                "move\t5\t1\t2\nmove\t6\t1\toutside\n");
  // Movement segments decode with the same rule.
  auto load_segment = [this](const std::string& text) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << text;
    }
    return LoadMovements(path_).status();
  };
  EXPECT_OK(load_segment("move\t5\t1\t2\nmove\t6\t1\tout\n"));
  EXPECT_TRUE(load_segment("move\t5\t1\t2\textra\n").IsParseError());
  EXPECT_TRUE(load_segment("move\t5\t4294967296\t2\n").IsParseError());
}

TEST_F(SnapshotStrictnessTest, SpentEntriesLoadInOneStep) {
  // The ledger count is restored in one step, not replayed entry by
  // entry: 10^9 spent entries on an unlimited grant load at once.
  const std::string unlimited = std::to_string(kUnlimitedEntries);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << kProbeHead
        << AuthLine("0", "explicit", "0", unlimited, "1000000000");
  }
  const auto started = std::chrono::steady_clock::now();
  ASSERT_OK_AND_ASSIGN(SystemState loaded, LoadSnapshot(path_));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  EXPECT_LT(elapsed.count(), 1000) << "ms to load the ledger";
  EXPECT_EQ(1000000000, loaded.auth_db.record(0).entries_used);
  // A spent-out, revoked grant loads too.
  EXPECT_OK(Load(AuthLine("0", "explicit", "1", "5", "5")));
}

TEST_F(SnapshotStrictnessTest, SpentEntriesOutsideTheGrantAreRefused) {
  for (const char* used : {"-1", "6"}) {
    SCOPED_TRACE(std::string("used ") + used);
    const Status refused = Load(AuthLine("0", "explicit", "0", "5", used));
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
    // The auth record is the file's sixth line.
    EXPECT_NE(std::string::npos, refused.message().find(path_ + "' line 6"))
        << "the error names the file and line: " << refused.ToString();
  }
  // An unlimited grant may not sit at INT64_MAX: one more entry would
  // overflow its count.
  const std::string unlimited = std::to_string(kUnlimitedEntries);
  EXPECT_TRUE(Load(AuthLine("0", "explicit", "0", unlimited, unlimited))
                  .IsInvalidArgument());
}

TEST_F(SnapshotTest, FinalLineWithoutNewlineStillLoads) {
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << kProbeHead << "edge\t1\t2";
  }
  ASSERT_OK_AND_ASSIGN(SystemState loaded, LoadSnapshot(path_));
  EXPECT_EQ(loaded.graph.Edges().size(), 1u);
}

}  // namespace
}  // namespace ltam
