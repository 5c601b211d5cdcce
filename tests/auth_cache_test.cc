// Copyright 2026 The LTAM Authors.
// Regression tests for stale answers from AuthorizationDatabase's
// Definition-7 lookup: every mutation (explicit add, revoke, ledger
// update, rule re-derivation) must be visible to the very next
// CheckAccess on a (subject, location) pair that was already checked, so
// an earlier grant or denial is never served again after it changed. The
// file keeps the name of the candidate cache these cases were written
// against; CheckAccess now reads the (subject, location) index in place.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/auth_database.h"
#include "core/rules/rule_engine.h"
#include "core/rules/subject_op.h"
#include "test_util.h"

namespace ltam {
namespace {

using testing_util::Fig4Fixture;

LocationTemporalAuthorization MakeAuth(SubjectId s, LocationId l, Chronon es,
                                       Chronon ee, Chronon xs, Chronon xe,
                                       int64_t n = kUnlimitedEntries) {
  return LocationTemporalAuthorization::Make(TimeInterval(es, ee),
                                             TimeInterval(xs, xe),
                                             LocationAuthorization{s, l}, n)
      .ValueOrDie();
}

TEST(AuthCacheTest, RevocationIsVisibleToTheNextCheck) {
  Fig4Fixture f = Fig4Fixture::Make();
  Decision before = f.auth_db.CheckAccess(10, f.alice, f.a);
  ASSERT_TRUE(before.granted);

  // Revoke the very authorization that granted.
  ASSERT_OK(f.auth_db.Revoke(before.auth));
  Decision after = f.auth_db.CheckAccess(10, f.alice, f.a);
  EXPECT_FALSE(after.granted);
  EXPECT_EQ(after.reason, DenyReason::kNoAuthorization);
}

TEST(AuthCacheTest, AddIsVisibleToTheNextCheck) {
  Fig4Fixture f = Fig4Fixture::Make();
  SubjectId bob = f.profiles.AddSubject("Bob").ValueOrDie();
  EXPECT_FALSE(f.auth_db.CheckAccess(10, bob, f.a).granted);

  f.auth_db.Add(MakeAuth(bob, f.a, 0, 100, 0, 200));
  EXPECT_TRUE(f.auth_db.CheckAccess(10, bob, f.a).granted);
}

TEST(AuthCacheTest, LedgerExhaustionIsVisibleToTheNextCheck) {
  Fig4Fixture f = Fig4Fixture::Make();
  SubjectId bob = f.profiles.AddSubject("Bob").ValueOrDie();
  AuthId id = f.auth_db.Add(MakeAuth(bob, f.a, 0, 100, 0, 200, /*n=*/2));

  EXPECT_TRUE(f.auth_db.CheckAndRecordAccess(5, bob, f.a).granted);
  EXPECT_TRUE(f.auth_db.CheckAndRecordAccess(6, bob, f.a).granted);
  Decision third = f.auth_db.CheckAccess(7, bob, f.a);
  EXPECT_FALSE(third.granted);
  EXPECT_EQ(third.reason, DenyReason::kEntriesExhausted);
  EXPECT_EQ(f.auth_db.record(id).entries_used, 2);
}

TEST(AuthCacheTest, RuleRederivationIsVisibleToTheNextCheck) {
  Fig4Fixture f = Fig4Fixture::Make();
  SubjectId bob = f.profiles.AddSubject("Bob").ValueOrDie();
  ASSERT_OK(f.profiles.SetSupervisor(f.alice, bob));

  // Base authorization for Alice at B; the rule derives the same for her
  // supervisor (Example 1's shape).
  AuthId base = f.auth_db.Add(MakeAuth(f.alice, f.b, 0, 100, 0, 200));
  RuleEngine rules(&f.auth_db, &f.profiles, &f.graph);
  AuthorizationRule rule;
  rule.base = base;
  rule.op_subject = std::make_shared<SupervisorOfOp>();
  RuleId rid = rules.AddRule(rule).ValueOrDie();
  ASSERT_OK(rules.DeriveRule(rid).status());
  ASSERT_TRUE(f.auth_db.CheckAccess(10, bob, f.b).granted);

  // Reassign the supervisor and re-derive: Bob's derived authorization is
  // revoked, Carol's is created.
  SubjectId carol = f.profiles.AddSubject("Carol").ValueOrDie();
  ASSERT_OK(f.profiles.SetSupervisor(f.alice, carol));
  ASSERT_OK(rules.DeriveRule(rid).status());

  EXPECT_FALSE(f.auth_db.CheckAccess(10, bob, f.b).granted);
  EXPECT_TRUE(f.auth_db.CheckAccess(10, carol, f.b).granted);
}

TEST(AuthCacheTest, CopyIsIndependentOfItsSource) {
  Fig4Fixture f = Fig4Fixture::Make();
  ASSERT_TRUE(f.auth_db.CheckAccess(10, f.alice, f.a).granted);

  AuthorizationDatabase copy = f.auth_db;
  EXPECT_TRUE(copy.CheckAccess(10, f.alice, f.a).granted);
  ASSERT_OK(copy.Revoke(copy.ForSubjectLocation(f.alice, f.a)[0]));
  EXPECT_FALSE(copy.CheckAccess(10, f.alice, f.a).granted);
  EXPECT_TRUE(f.auth_db.CheckAccess(10, f.alice, f.a).granted);

  AuthorizationDatabase moved = std::move(f.auth_db);
  EXPECT_TRUE(moved.CheckAccess(10, f.alice, f.a).granted);
}

}  // namespace
}  // namespace ltam
