// Copyright 2026 The LTAM Authors.
// Tests for the authorization database, including the exact Section 5
// grant/deny timeline (A1/A2, Alice/Bob).

#include "core/auth_database.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "test_util.h"

namespace ltam {
namespace {

LocationTemporalAuthorization MakeAuth(SubjectId s, LocationId l, Chronon es,
                                       Chronon ee, Chronon xs, Chronon xe,
                                       int64_t n = kUnlimitedEntries) {
  return LocationTemporalAuthorization::Make(TimeInterval(es, ee),
                                             TimeInterval(xs, xe),
                                             LocationAuthorization{s, l}, n)
      .ValueOrDie();
}

TEST(AuthDatabaseTest, AddAndLookup) {
  AuthorizationDatabase db;
  AuthId a1 = db.Add(MakeAuth(0, 10, 0, 100, 0, 200));
  AuthId a2 = db.Add(MakeAuth(0, 11, 0, 100, 0, 200));
  AuthId a3 = db.Add(MakeAuth(1, 10, 0, 100, 0, 200));
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.active_size(), 3u);
  EXPECT_EQ(db.ForSubjectLocation(0, 10), std::vector<AuthId>{a1});
  EXPECT_EQ(db.ForSubject(0), (std::vector<AuthId>{a1, a2}));
  EXPECT_EQ(db.ForLocation(10), (std::vector<AuthId>{a1, a3}));
  EXPECT_EQ(db.Active(), (std::vector<AuthId>{a1, a2, a3}));
  EXPECT_TRUE(db.ForSubjectLocation(9, 9).empty());
}

TEST(AuthDatabaseTest, RevokeHidesFromQueries) {
  AuthorizationDatabase db;
  AuthId a1 = db.Add(MakeAuth(0, 10, 0, 100, 0, 200));
  ASSERT_OK(db.Revoke(a1));
  EXPECT_TRUE(db.ForSubjectLocation(0, 10).empty());
  EXPECT_EQ(db.active_size(), 0u);
  EXPECT_TRUE(db.record(a1).revoked);
  // Idempotent; unknown ids rejected.
  ASSERT_OK(db.Revoke(a1));
  EXPECT_TRUE(db.Revoke(99).IsNotFound());
  // Revoked auths deny.
  EXPECT_FALSE(db.CheckAccess(50, 0, 10).granted);
}

TEST(AuthDatabaseTest, DerivedProvenanceAndBulkRevoke) {
  AuthorizationDatabase db;
  AuthId base = db.Add(MakeAuth(0, 10, 0, 100, 0, 200));
  AuthId d1 = db.AddDerived(MakeAuth(1, 10, 0, 100, 0, 200), 7);
  AuthId d2 = db.AddDerived(MakeAuth(2, 10, 0, 100, 0, 200), 7);
  AuthId d3 = db.AddDerived(MakeAuth(3, 10, 0, 100, 0, 200), 8);
  EXPECT_EQ(db.record(d1).origin, AuthOrigin::kDerived);
  EXPECT_EQ(db.record(d1).source_rule, 7u);
  EXPECT_EQ(db.record(base).origin, AuthOrigin::kExplicit);
  EXPECT_EQ(db.RevokeDerivedBy(7), 2u);
  EXPECT_TRUE(db.record(d1).revoked);
  EXPECT_TRUE(db.record(d2).revoked);
  EXPECT_FALSE(db.record(d3).revoked);
  // Second bulk revoke finds nothing.
  EXPECT_EQ(db.RevokeDerivedBy(7), 0u);
  EXPECT_EQ(db.RevokeDerivedBy(999), 0u);
}

TEST(AuthDatabaseTest, Definition7EntryWindow) {
  AuthorizationDatabase db;
  db.Add(MakeAuth(0, 10, 10, 20, 10, 50, 2));
  EXPECT_FALSE(db.CheckAccess(9, 0, 10).granted);
  EXPECT_EQ(db.CheckAccess(9, 0, 10).reason,
            DenyReason::kOutsideEntryDuration);
  EXPECT_TRUE(db.CheckAccess(10, 0, 10).granted);
  EXPECT_TRUE(db.CheckAccess(20, 0, 10).granted);
  EXPECT_FALSE(db.CheckAccess(21, 0, 10).granted);
  EXPECT_EQ(db.CheckAccess(50, 1, 10).reason, DenyReason::kNoAuthorization);
}

TEST(AuthDatabaseTest, Definition7EntryCountLedger) {
  AuthorizationDatabase db;
  AuthId a = db.Add(MakeAuth(0, 10, 0, 100, 0, 200, 2));
  Decision d1 = db.CheckAndRecordAccess(10, 0, 10);
  EXPECT_TRUE(d1.granted);
  EXPECT_EQ(d1.auth, a);
  EXPECT_EQ(db.record(a).entries_used, 1);
  EXPECT_TRUE(db.CheckAndRecordAccess(20, 0, 10).granted);
  // Third entry exceeds n=2.
  Decision d3 = db.CheckAndRecordAccess(30, 0, 10);
  EXPECT_FALSE(d3.granted);
  EXPECT_EQ(d3.reason, DenyReason::kEntriesExhausted);
}

TEST(AuthDatabaseTest, ExhaustedFallsBackToSecondAuthorization) {
  AuthorizationDatabase db;
  AuthId first = db.Add(MakeAuth(0, 10, 0, 100, 0, 200, 1));
  AuthId second = db.Add(MakeAuth(0, 10, 50, 150, 50, 250, 1));
  EXPECT_EQ(db.CheckAndRecordAccess(60, 0, 10).auth, first);
  // First is exhausted; the overlapping second should now grant.
  Decision d = db.CheckAndRecordAccess(70, 0, 10);
  EXPECT_TRUE(d.granted);
  EXPECT_EQ(d.auth, second);
  EXPECT_FALSE(db.CheckAccess(80, 0, 10).granted);
}

TEST(AuthDatabaseTest, RecordEntryGuards) {
  AuthorizationDatabase db;
  AuthId a = db.Add(MakeAuth(0, 10, 0, 100, 0, 200, 1));
  EXPECT_TRUE(db.RecordEntry(99).IsNotFound());
  ASSERT_OK(db.RecordEntry(a));
  EXPECT_TRUE(db.RecordEntry(a).IsFailedPrecondition());  // Exhausted.
  AuthId b = db.Add(MakeAuth(0, 11, 0, 100, 0, 200));
  ASSERT_OK(db.Revoke(b));
  EXPECT_TRUE(db.RecordEntry(b).IsFailedPrecondition());  // Revoked.
}

TEST(AuthDatabaseTest, Section5Timeline) {
  // A1: ([10,20],[10,50],(Alice,CAIS),2); A2: ([5,35],[20,100],(Bob,
  // CHIPES),1).
  AuthorizationDatabase db;
  const SubjectId alice = 0;
  const SubjectId bob = 1;
  const LocationId cais = 10;
  const LocationId chipes = 11;
  db.Add(MakeAuth(alice, cais, 10, 20, 10, 50, 2));
  db.Add(MakeAuth(bob, chipes, 5, 35, 20, 100, 1));

  // t=10: (10, Alice, CAIS) granted according to A1.
  EXPECT_TRUE(db.CheckAndRecordAccess(10, alice, cais).granted);
  // t=15: (15, Bob, CAIS) not authorized: no authorization for Bob@CAIS.
  Decision d = db.CheckAccess(15, bob, cais);
  EXPECT_FALSE(d.granted);
  EXPECT_EQ(d.reason, DenyReason::kNoAuthorization);
  // t=16: (16, Bob, CHIPES) authorized based on A2.
  EXPECT_TRUE(db.CheckAndRecordAccess(16, bob, chipes).granted);
  // t=20: Bob leaves CHIPES (no database change needed here).
  // t=30: (30, Bob, CHIPES) not authorized: only one entry allowed.
  Decision d30 = db.CheckAccess(30, bob, chipes);
  EXPECT_FALSE(d30.granted);
  EXPECT_EQ(d30.reason, DenyReason::kEntriesExhausted);
}

TEST(AuthDatabaseTest, DurationAggregates) {
  AuthorizationDatabase db;
  db.Add(MakeAuth(0, 10, 2, 35, 20, 50));
  db.Add(MakeAuth(0, 10, 40, 60, 55, 80));
  EXPECT_EQ(db.EntryDurations(0, 10).ToString(), "{[2, 35], [40, 60]}");
  EXPECT_EQ(db.ExitDurations(0, 10).ToString(), "{[20, 50], [55, 80]}");
  EXPECT_EQ(db.GrantDurations(0, 10, TimeInterval(30, 45)).ToString(),
            "{[30, 35], [40, 45]}");
  EXPECT_TRUE(db.EntryDurations(0, 99).empty());
}

TEST(AuthDatabaseTest, UnlimitedEntriesNeverExhaust) {
  AuthorizationDatabase db;
  db.Add(MakeAuth(0, 10, 0, 100, 0, 200));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(db.CheckAndRecordAccess(50, 0, 10).granted);
  }
}

// The server's read workers may check one subject at the same time, with
// no writer running; every reader must see what a lone reader sees.
TEST(AuthDatabaseTest, ConcurrentReadersOfOneSubject) {
  AuthorizationDatabase db;
  db.Add(MakeAuth(0, 10, 0, 30, 0, 60, 1));
  db.Add(MakeAuth(0, 10, 20, 50, 20, 90));
  AuthId revoked = db.Add(MakeAuth(0, 10, 40, 70, 40, 90));
  db.Add(MakeAuth(0, 10, 80, 90, 80, 99, 2));
  ASSERT_OK(db.Revoke(revoked));
  ASSERT_TRUE(db.CheckAndRecordAccess(5, 0, 10).granted);

  constexpr Chronon kHorizon = 100;
  std::vector<Decision> expected;
  for (Chronon t = 0; t < kHorizon; ++t) {
    expected.push_back(db.CheckAccess(t, 0, 10));
  }
  const std::vector<AuthId> expected_ids = db.ForSubjectLocation(0, 10);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int k = 0; k < kThreads; ++k) {
    readers.emplace_back([&, k] {
      for (int round = 0; round < 200; ++round) {
        for (Chronon t = 0; t < kHorizon; ++t) {
          Decision d = db.CheckAccess(t, 0, 10);
          const Decision& want = expected[static_cast<size_t>(t)];
          if (d.granted != want.granted || d.auth != want.auth ||
              d.reason != want.reason) {
            ++mismatches[k];
          }
        }
        if (db.ForSubjectLocation(0, 10) != expected_ids) ++mismatches[k];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int k = 0; k < kThreads; ++k) EXPECT_EQ(mismatches[k], 0) << k;
}

}  // namespace
}  // namespace ltam
