// Copyright 2026 The LTAM Authors.
// MovementView: the sharded fan-out implementation must answer every
// query exactly like one sequential database holding the union history
// (modulo the documented StaysIn tie normalization).

#include "query/movement_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "query/query_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

constexpr uint32_t kShards = 3;

uint32_t ShardOf(SubjectId s) {
  return ShardedDecisionEngine::ShardOfSubject(s, kShards);
}

/// One movement history recorded twice: into a single reference database
/// and partitioned by subject across kShards shard databases.
struct SplitWorld {
  MovementDatabase reference;
  std::vector<MovementDatabase> shards{kShards};

  void Record(Chronon t, SubjectId s, LocationId to) {
    ASSERT_OK(reference.RecordMovement(t, s, to));
    ASSERT_OK(shards[ShardOf(s)].RecordMovement(t, s, to));
  }
};

SplitWorld MakeWorld(uint64_t seed, uint32_t subjects = 17,
                     uint32_t locations = 9, uint32_t steps = 40) {
  SplitWorld w;
  Rng rng(seed);
  std::vector<Chronon> clock(subjects, 0);
  for (uint32_t step = 0; step < steps; ++step) {
    for (SubjectId s = 0; s < subjects; ++s) {
      clock[s] += 1 + static_cast<Chronon>(rng.Uniform(4));
      // Mostly moves between locations; occasionally leaves the site.
      LocationId to = rng.Uniform(8) == 0
                          ? kInvalidLocation
                          : static_cast<LocationId>(rng.Uniform(locations));
      LocationId cur = w.reference.CurrentLocation(s);
      if (to == cur) continue;  // RecordMovement rejects no-ops.
      w.Record(clock[s], s, to);
    }
  }
  return w;
}

std::vector<const MovementDatabase*> ShardPtrs(const SplitWorld& w) {
  std::vector<const MovementDatabase*> out;
  for (const MovementDatabase& db : w.shards) out.push_back(&db);
  return out;
}

using StayKey = std::tuple<Chronon, SubjectId, LocationId, Chronon>;

std::vector<StayKey> Normalized(std::vector<Stay> stays) {
  std::vector<StayKey> out;
  out.reserve(stays.size());
  for (const Stay& s : stays) {
    out.push_back(
        std::make_tuple(s.enter_time, s.subject, s.location, s.exit_time));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ContactString(const std::vector<MovementDatabase::Contact>& cs) {
  std::string out;
  for (const MovementDatabase::Contact& c : cs) {
    out += std::to_string(c.other) + "@" + std::to_string(c.location) + ":" +
           std::to_string(c.overlap_start) + "-" +
           std::to_string(c.overlap_end) + ";";
  }
  return out;
}

TEST(MovementViewTest, MatchesSequentialDatabase) {
  SplitWorld w = MakeWorld(2026);
  MovementDatabaseView sequential(&w.reference);
  ShardedMovementView fanout(ShardPtrs(w), &ShardOf);

  const uint32_t subjects = 17;
  const uint32_t locations = 9;
  EXPECT_EQ(sequential.tracked_subjects(), fanout.tracked_subjects());
  EXPECT_EQ(sequential.history_size(), fanout.history_size());

  for (SubjectId s = 0; s < subjects + 3; ++s) {  // +3: unknown subjects.
    SCOPED_TRACE(s);
    EXPECT_EQ(sequential.CurrentLocation(s), fanout.CurrentLocation(s));
    Result<Chronon> seq_since = sequential.CurrentStaySince(s);
    Result<Chronon> fan_since = fanout.CurrentStaySince(s);
    ASSERT_EQ(seq_since.ok(), fan_since.ok());
    if (seq_since.ok()) {
      EXPECT_EQ(*seq_since, *fan_since);
    }
    for (Chronon t : {0, 10, 50, 100, 200}) {
      EXPECT_EQ(sequential.LocationAt(s, t), fanout.LocationAt(s, t));
    }
    EXPECT_EQ(Normalized(sequential.StaysOf(s)),
              Normalized(fanout.StaysOf(s)));
    EXPECT_EQ(ContactString(sequential.ContactsOf(s, TimeInterval(0, 150), 1)),
              ContactString(fanout.ContactsOf(s, TimeInterval(0, 150), 1)));
    EXPECT_EQ(ContactString(sequential.ContactsOf(s, TimeInterval(20, 80), 3)),
              ContactString(fanout.ContactsOf(s, TimeInterval(20, 80), 3)));
  }
  for (LocationId l = 0; l < locations + 2; ++l) {  // +2: unknown locations.
    SCOPED_TRACE(l);
    for (Chronon t : {0, 25, 75, 150}) {
      EXPECT_EQ(sequential.OccupantsAt(l, t), fanout.OccupantsAt(l, t));
    }
    EXPECT_EQ(sequential.CurrentOccupants(l), fanout.CurrentOccupants(l));
    EXPECT_EQ(Normalized(sequential.StaysIn(l)), Normalized(fanout.StaysIn(l)));
  }
}

TEST(MovementViewTest, StaysInIsDeterministicallyOrdered) {
  SplitWorld w = MakeWorld(7);
  ShardedMovementView fanout(ShardPtrs(w), &ShardOf);
  for (LocationId l = 0; l < 9; ++l) {
    std::vector<Stay> stays = fanout.StaysIn(l);
    for (size_t i = 1; i < stays.size(); ++i) {
      bool ordered =
          std::make_tuple(stays[i - 1].enter_time, stays[i - 1].subject) <=
          std::make_tuple(stays[i].enter_time, stays[i].subject);
      EXPECT_TRUE(ordered) << "location " << l << " index " << i;
    }
  }
}

TEST(MovementViewQueryEngineTest, QueryEngineConsumesAnyView) {
  // The same QueryEngine code answers over a fan-out view and over the
  // sequential database with identical results.
  SplitWorld w = MakeWorld(99, /*subjects=*/8, /*locations=*/5);
  MultilevelLocationGraph graph("Site");
  std::vector<LocationId> rooms;
  for (int i = 0; i < 5; ++i) {
    rooms.push_back(
        graph.AddPrimitive("R" + std::to_string(i), graph.root())
            .ValueOrDie());
  }
  for (size_t i = 1; i < rooms.size(); ++i) {
    ASSERT_OK(graph.AddEdge(rooms[i - 1], rooms[i]));
  }
  ASSERT_OK(graph.SetEntry(rooms[0]));
  UserProfileDatabase profiles;
  for (int i = 0; i < 8; ++i) {
    profiles.AddSubject("u" + std::to_string(i)).ValueOrDie();
  }
  AuthorizationDatabase auth_db;

  ShardedMovementView fanout(ShardPtrs(w), &ShardOf);
  QueryEngine over_view(&graph, &auth_db, &fanout, &profiles);
  QueryEngine over_db(&graph, &auth_db, &w.reference, &profiles);
  for (SubjectId s = 0; s < 8; ++s) {
    EXPECT_EQ(over_db.WhereWas(s, 60), over_view.WhereWas(s, 60));
  }
  for (LocationId l : rooms) {
    EXPECT_EQ(over_db.Occupants(l, 60), over_view.Occupants(l, 60));
  }
}

}  // namespace
}  // namespace ltam
