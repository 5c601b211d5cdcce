// Copyright 2026 The LTAM Authors.
// Tests for rule derivation — Examples 1-3 of Section 4 verbatim, plus
// re-derivation on profile change and WHENEVERNOT multi-interval rules.

#include "core/rules/rule_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/graph_gen.h"
#include "test_util.h"

namespace ltam {
namespace {

class RuleEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(graph_, MakeNtuCampusGraph());
    ASSERT_OK_AND_ASSIGN(alice_, profiles_.AddSubject("Alice"));
    ASSERT_OK_AND_ASSIGN(bob_, profiles_.AddSubject("Bob"));
    ASSERT_OK(profiles_.SetSupervisor(alice_, bob_));
    ASSERT_OK_AND_ASSIGN(cais_, graph_.Find("CAIS"));
    // a1: ([5, 20], [15, 50], (Alice, CAIS), 2).
    ASSERT_OK_AND_ASSIGN(
        LocationTemporalAuthorization a1,
        LocationTemporalAuthorization::Make(
            TimeInterval(5, 20), TimeInterval(15, 50),
            LocationAuthorization{alice_, cais_}, 2));
    a1_ = auth_db_.Add(a1);
    engine_ = std::make_unique<RuleEngine>(&auth_db_, &profiles_, &graph_);
  }

  /// Active derived authorizations of a rule.
  std::vector<LocationTemporalAuthorization> DerivedOf(RuleId rule) {
    std::vector<LocationTemporalAuthorization> out;
    for (AuthId id : auth_db_.Active()) {
      const AuthRecord& rec = auth_db_.record(id);
      if (rec.origin == AuthOrigin::kDerived && rec.source_rule == rule) {
        out.push_back(rec.auth);
      }
    }
    return out;
  }

  MultilevelLocationGraph graph_;
  UserProfileDatabase profiles_;
  AuthorizationDatabase auth_db_;
  std::unique_ptr<RuleEngine> engine_;
  SubjectId alice_ = kInvalidSubject;
  SubjectId bob_ = kInvalidSubject;
  LocationId cais_ = kInvalidLocation;
  AuthId a1_ = kInvalidAuth;
};

TEST_F(RuleEngineTest, Example1SupervisorDerivation) {
  // r1: <7 : a1, (WHENEVER, WHENEVER, Supervisor_Of, CAIS, 2)>.
  AuthorizationRule r1;
  r1.valid_from = 7;
  r1.base = a1_;
  r1.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  r1.label = "r1";
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(r1));
  ASSERT_OK_AND_ASSIGN(DerivationReport report, engine_->DeriveAll());
  EXPECT_EQ(report.derived, 1u);
  // Derived a2: ([5, 20], [15, 50], (Bob, CAIS), 2).
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].subject(), bob_);
  EXPECT_EQ(derived[0].location(), cais_);
  EXPECT_EQ(derived[0].entry_duration(), TimeInterval(5, 20));
  EXPECT_EQ(derived[0].exit_duration(), TimeInterval(15, 50));
  EXPECT_EQ(derived[0].max_entries(), 2);
  // Bob can now enter CAIS at t=10.
  EXPECT_TRUE(auth_db_.CheckAccess(10, bob_, cais_).granted);
}

TEST_F(RuleEngineTest, Example1RederivationOnNewSupervisor) {
  AuthorizationRule r1;
  r1.valid_from = 7;
  r1.base = a1_;
  r1.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(r1));
  ASSERT_OK(engine_->DeriveAll().status());
  EXPECT_TRUE(auth_db_.CheckAccess(10, bob_, cais_).granted);

  // "If Alice is assigned a different supervisor... the system is able to
  // automatically derive the authorizations for the new supervisor while
  // the authorization for Bob will be revoked."
  ASSERT_OK_AND_ASSIGN(SubjectId carol, profiles_.AddSubject("Carol"));
  ASSERT_OK(profiles_.SetSupervisor(alice_, carol));
  ASSERT_OK_AND_ASSIGN(DerivationReport report,
                       engine_->RefreshIfProfilesChanged());
  EXPECT_EQ(report.revoked, 1u);
  EXPECT_EQ(report.derived, 1u);
  EXPECT_FALSE(auth_db_.CheckAccess(10, bob_, cais_).granted);
  EXPECT_TRUE(auth_db_.CheckAccess(10, carol, cais_).granted);
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].subject(), carol);
  // No further profile change -> refresh is a no-op.
  ASSERT_OK_AND_ASSIGN(DerivationReport noop,
                       engine_->RefreshIfProfilesChanged());
  EXPECT_EQ(noop.rules_evaluated, 0u);
}

TEST_F(RuleEngineTest, Example2IntersectionClipsEntry) {
  // r2: <7 : a1, (INTERSECTION([10, 30]), WHENEVER, Supervisor_Of, CAIS,
  // 2)> derives a3: ([10, 20], [15, 50], (Bob, CAIS), 2).
  AuthorizationRule r2;
  r2.valid_from = 7;
  r2.base = a1_;
  r2.op_entry = TemporalOperatorPtr(new IntersectionOp(TimeInterval(10, 30)));
  r2.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(r2));
  ASSERT_OK(engine_->DeriveAll().status());
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].entry_duration(), TimeInterval(10, 20));
  EXPECT_EQ(derived[0].exit_duration(), TimeInterval(15, 50));
  EXPECT_EQ(derived[0].subject(), bob_);
  EXPECT_EQ(derived[0].max_entries(), 2);
}

TEST_F(RuleEngineTest, Example3AllRouteFrom) {
  // r3: <7 : a1, (WHENEVER, WHENEVER, -, all_route_from(SCE.GO), 2)>.
  AuthorizationRule r3;
  r3.valid_from = 7;
  r3.base = a1_;
  r3.op_location = LocationOperatorPtr(new AllRouteFromOp("SCE.GO"));
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(r3));
  ASSERT_OK(engine_->DeriveAll().status());
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  // "An authorization will be derived for each of these locations":
  // {SCE.GO, SCE.SectionA, SCE.SectionB, SCE.SectionC, CHIPES}.
  ASSERT_EQ(derived.size(), 5u);
  std::vector<std::string> names;
  for (const auto& auth : derived) {
    EXPECT_EQ(auth.subject(), alice_);
    EXPECT_EQ(auth.entry_duration(), TimeInterval(5, 20));
    names.push_back(graph_.location(auth.location()).name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"CHIPES", "SCE.GO", "SCE.SectionA",
                                      "SCE.SectionB", "SCE.SectionC"}));
}

TEST_F(RuleEngineTest, WheneverNotDerivesTwoAuthorizations) {
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  rule.op_entry = TemporalOperatorPtr(new WheneverNotOp());
  rule.op_exit = TemporalOperatorPtr(new WheneverNotOp());
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(engine_->DeriveAll().status());
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  // Entry pieces: [0,4] and [21,inf]; exit pieces: [0,14] and [51,inf].
  // Definition-4 filtering keeps ([0,4],[0->0,14]) and ([21,inf],[51,inf])
  // and ([0,4],[51,inf]); ([21,inf],[0,14]) dies (exit ends before entry).
  ASSERT_EQ(derived.size(), 3u);
  bool saw_early = false;
  bool saw_late = false;
  for (const auto& auth : derived) {
    if (auth.entry_duration() == TimeInterval(0, 4) &&
        auth.exit_duration() == TimeInterval(0, 14)) {
      saw_early = true;
    }
    if (auth.entry_duration() == TimeInterval(21, kChrononMax) &&
        auth.exit_duration() == TimeInterval(51, kChrononMax)) {
      saw_late = true;
    }
  }
  EXPECT_TRUE(saw_early);
  EXPECT_TRUE(saw_late);
}

TEST_F(RuleEngineTest, CountExpression) {
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  ASSERT_OK_AND_ASSIGN(rule.exp_n, CountExpr::Parse("n*3"));
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(engine_->DeriveAll().status());
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].max_entries(), 6);
}

TEST_F(RuleEngineTest, UnsetOperatorsCopyBase) {
  // "If any of the rule elements is not specified in a rule, the default
  // value will be copied from the base authorization."
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(engine_->DeriveAll().status());
  std::vector<LocationTemporalAuthorization> derived = DerivedOf(rid);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0], auth_db_.record(a1_).auth);
}

TEST_F(RuleEngineTest, RevokedBaseDerivesNothing) {
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(auth_db_.Revoke(a1_));
  ASSERT_OK(engine_->DeriveAll().status());
  EXPECT_TRUE(DerivedOf(rid).empty());
}

TEST_F(RuleEngineTest, AddRuleValidatesBase) {
  AuthorizationRule rule;
  rule.base = 999;
  EXPECT_TRUE(engine_->AddRule(rule).status().IsNotFound());
}

TEST_F(RuleEngineTest, RemoveRuleRevokesDerivations) {
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(engine_->DeriveAll().status());
  EXPECT_TRUE(auth_db_.CheckAccess(10, bob_, cais_).granted);
  ASSERT_OK(engine_->RemoveRule(rid));
  EXPECT_FALSE(auth_db_.CheckAccess(10, bob_, cais_).granted);
  EXPECT_TRUE(engine_->RemoveRule(rid).IsNotFound());
}

TEST_F(RuleEngineTest, DeriveAllIsIdempotent) {
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  ASSERT_OK_AND_ASSIGN(RuleId rid, engine_->AddRule(rule));
  ASSERT_OK(engine_->DeriveAll().status());
  ASSERT_OK(engine_->DeriveAll().status());
  ASSERT_OK(engine_->DeriveAll().status());
  EXPECT_EQ(DerivedOf(rid).size(), 1u);
}

TEST_F(RuleEngineTest, RederivationKeepsUnchangedRecordsAndTheirLedger) {
  // Re-deriving a rule whose output has not changed keeps each derived
  // record, its id and its entries_used: an exhausted derived grant
  // stays exhausted and the ledger does not grow.
  AuthorizationRule rule;
  rule.valid_from = 0;
  rule.base = a1_;
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  ASSERT_OK(engine_->AddRule(rule).status());
  ASSERT_OK(engine_->DeriveAll().status());
  // a1 allows two entries, and so does Bob's derived copy.
  Decision first = auth_db_.CheckAndRecordAccess(10, bob_, cais_);
  ASSERT_TRUE(first.granted);
  ASSERT_TRUE(auth_db_.CheckAndRecordAccess(11, bob_, cais_).granted);
  ASSERT_EQ(DenyReason::kEntriesExhausted,
            auth_db_.CheckAccess(12, bob_, cais_).reason);
  const size_t ledger = auth_db_.size();

  ASSERT_OK_AND_ASSIGN(DerivationReport report, engine_->DeriveAll());
  EXPECT_EQ(0u, report.derived);
  EXPECT_EQ(0u, report.revoked);
  EXPECT_EQ(ledger, auth_db_.size());
  Decision after = auth_db_.CheckAccess(12, bob_, cais_);
  EXPECT_FALSE(after.granted);
  EXPECT_EQ(DenyReason::kEntriesExhausted, after.reason);
  EXPECT_FALSE(auth_db_.record(first.auth).revoked);
  EXPECT_EQ(2, auth_db_.record(first.auth).entries_used);
}

TEST_F(RuleEngineTest, RuleToString) {
  AuthorizationRule rule;
  rule.valid_from = 7;
  rule.base = a1_;
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  EXPECT_EQ(rule.ToString(),
            "<7 : (a#0, (WHENEVER, WHENEVER, Supervisor_Of, Identity, n))>");
}

}  // namespace
}  // namespace ltam
