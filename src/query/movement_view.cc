// Copyright 2026 The LTAM Authors.

#include "query/movement_view.h"

#include <algorithm>

#include "util/logging.h"

namespace ltam {

// --- MovementDatabaseView ----------------------------------------------------

LocationId MovementDatabaseView::CurrentLocation(SubjectId s) const {
  return db_->CurrentLocation(s);
}

Result<Chronon> MovementDatabaseView::CurrentStaySince(SubjectId s) const {
  return db_->CurrentStaySince(s);
}

LocationId MovementDatabaseView::LocationAt(SubjectId s, Chronon t) const {
  return db_->LocationAt(s, t);
}

std::vector<SubjectId> MovementDatabaseView::OccupantsAt(LocationId l,
                                                         Chronon t) const {
  return db_->OccupantsAt(l, t);
}

std::vector<SubjectId> MovementDatabaseView::CurrentOccupants(
    LocationId l) const {
  return db_->CurrentOccupants(l);
}

std::vector<Stay> MovementDatabaseView::StaysOf(SubjectId s) const {
  return db_->StaysOf(s);
}

std::vector<Stay> MovementDatabaseView::StaysIn(LocationId l) const {
  return db_->StaysIn(l);
}

std::vector<MovementDatabase::Contact> MovementDatabaseView::ContactsOf(
    SubjectId s, const TimeInterval& window, Chronon min_overlap) const {
  return db_->ContactsOf(s, window, min_overlap);
}

size_t MovementDatabaseView::tracked_subjects() const {
  return db_->tracked_subjects();
}

size_t MovementDatabaseView::history_size() const {
  // Logical size: sealing/retention must not change the reported
  // history length (total_events == history().size() pre-seal).
  return static_cast<size_t>(db_->total_events());
}

// --- ShardedMovementView -----------------------------------------------------

ShardedMovementView::ShardedMovementView(
    std::vector<const MovementDatabase*> shards, ShardRouter route)
    : shards_(std::move(shards)), route_(std::move(route)) {
  LTAM_CHECK(!shards_.empty()) << "sharded view needs at least one shard";
  for (const MovementDatabase* db : shards_) {
    LTAM_CHECK(db != nullptr) << "sharded view over a null shard";
  }
}

const MovementDatabase& ShardedMovementView::OwnerShard(SubjectId s) const {
  uint32_t k = route_(s);
  LTAM_CHECK(k < shards_.size()) << "router mapped subject out of range";
  return *shards_[k];
}

LocationId ShardedMovementView::CurrentLocation(SubjectId s) const {
  return OwnerShard(s).CurrentLocation(s);
}

Result<Chronon> ShardedMovementView::CurrentStaySince(SubjectId s) const {
  return OwnerShard(s).CurrentStaySince(s);
}

LocationId ShardedMovementView::LocationAt(SubjectId s, Chronon t) const {
  return OwnerShard(s).LocationAt(s, t);
}

std::vector<SubjectId> ShardedMovementView::OccupantsAt(LocationId l,
                                                        Chronon t) const {
  std::vector<SubjectId> out;
  for (const MovementDatabase* db : shards_) {
    std::vector<SubjectId> part = db->OccupantsAt(l, t);
    out.insert(out.end(), part.begin(), part.end());
  }
  // Each shard already sorted + deduplicated its part; subjects are
  // disjoint across shards, so a global sort restores the contract.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SubjectId> ShardedMovementView::CurrentOccupants(
    LocationId l) const {
  std::vector<SubjectId> out;
  for (const MovementDatabase* db : shards_) {
    std::vector<SubjectId> part = db->CurrentOccupants(l);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Stay> ShardedMovementView::StaysOf(SubjectId s) const {
  return OwnerShard(s).StaysOf(s);
}

std::vector<Stay> ShardedMovementView::StaysIn(LocationId l) const {
  std::vector<Stay> out;
  for (const MovementDatabase* db : shards_) {
    std::vector<Stay> part = db->StaysIn(l);
    out.insert(out.end(), part.begin(), part.end());
  }
  // Per-shard lists are in per-shard arrival (enter-time) order; the
  // cross-subject interleaving of one global database is not
  // reconstructible, so normalize to (enter_time, subject, exit_time,
  // location) — the same order a sealed MovementDatabase emits, so
  // tiered and untiered deployments render identical lists.
  std::stable_sort(out.begin(), out.end(), [](const Stay& a, const Stay& b) {
    if (a.enter_time != b.enter_time) return a.enter_time < b.enter_time;
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.exit_time != b.exit_time) return a.exit_time < b.exit_time;
    return a.location < b.location;
  });
  return out;
}

std::vector<MovementDatabase::Contact> ShardedMovementView::ContactsOf(
    SubjectId s, const TimeInterval& window, Chronon min_overlap) const {
  // The probe subject's stays live on one shard; the co-located stays
  // live anywhere. For each of the probe's stays, fan the location scan
  // out over every shard — the same (stay x candidate-stay) pairs the
  // sequential ContactsOf enumerates, via the shared matcher.
  std::vector<MovementDatabase::Contact> out;
  for (const Stay& mine : StaysOf(s)) {
    for (const MovementDatabase* db : shards_) {
      // Per-database hot+cold scan — the same step the sequential
      // ContactsOf takes per stay, so the fan-out stays byte-identical.
      db->AppendContactsForStay(mine, window, min_overlap, &out);
    }
  }
  SortContacts(&out);
  return out;
}

size_t ShardedMovementView::tracked_subjects() const {
  size_t total = 0;
  for (const MovementDatabase* db : shards_) total += db->tracked_subjects();
  return total;
}

size_t ShardedMovementView::history_size() const {
  size_t total = 0;
  for (const MovementDatabase* db : shards_) {
    total += static_cast<size_t>(db->total_events());
  }
  return total;
}

}  // namespace ltam
