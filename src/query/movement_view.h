// Copyright 2026 The LTAM Authors.
// MovementView: the read side of the movement store, backend-agnostic.
//
// The runtime exposes its per-shard movement databases behind a fan-out
// implementation (ShardedMovementView) that routes subject-keyed queries
// to the owning shard and merges location/contact queries across shards
// — no merged copy of the history, and answers always reflect the live
// per-shard state. A single database (the reference oracle's, or a
// standalone QueryEngine's) is exposed directly (MovementDatabaseView).
//
// Result contract: every query returns exactly what a single sequential
// MovementDatabase holding the union history would return, with one
// caveat — orderings that depend on cross-subject arrival interleaving
// (StaysIn ties at equal enter time) are normalized to a deterministic
// (enter_time, subject) order by the sharded view.

#ifndef LTAM_QUERY_MOVEMENT_VIEW_H_
#define LTAM_QUERY_MOVEMENT_VIEW_H_

#include <functional>
#include <vector>

#include "engine/movement_db.h"

namespace ltam {

/// Read-only query surface over one logical movement history.
class MovementView {
 public:
  virtual ~MovementView() = default;

  /// Current location of `s`; kInvalidLocation when outside/unknown.
  virtual LocationId CurrentLocation(SubjectId s) const = 0;
  /// Time `s` entered their current location; NotFound when outside.
  virtual Result<Chronon> CurrentStaySince(SubjectId s) const = 0;
  /// Where `s` was at time `t`; kInvalidLocation when outside.
  virtual LocationId LocationAt(SubjectId s, Chronon t) const = 0;
  /// Subjects inside `l` at time `t`, ascending, deduplicated.
  virtual std::vector<SubjectId> OccupantsAt(LocationId l,
                                             Chronon t) const = 0;
  /// Subjects currently inside `l`, ascending.
  virtual std::vector<SubjectId> CurrentOccupants(LocationId l) const = 0;
  /// Every completed and open stay of `s`, in time order.
  virtual std::vector<Stay> StaysOf(SubjectId s) const = 0;
  /// Every stay in `l`; sharded backends order by (enter_time, subject).
  virtual std::vector<Stay> StaysIn(LocationId l) const = 0;
  /// Contact query (the SARS scenario of Section 1), ordered by
  /// (overlap_start, other, location, overlap_end).
  virtual std::vector<MovementDatabase::Contact> ContactsOf(
      SubjectId s, const TimeInterval& window,
      Chronon min_overlap = 1) const = 0;
  /// Number of subjects currently inside some location.
  virtual size_t tracked_subjects() const = 0;
  /// Total movement events recorded.
  virtual size_t history_size() const = 0;
};

/// The sequential implementation: a thin forwarder over one borrowed
/// MovementDatabase (which must outlive the view).
class MovementDatabaseView final : public MovementView {
 public:
  explicit MovementDatabaseView(const MovementDatabase* db) : db_(db) {}

  LocationId CurrentLocation(SubjectId s) const override;
  Result<Chronon> CurrentStaySince(SubjectId s) const override;
  LocationId LocationAt(SubjectId s, Chronon t) const override;
  std::vector<SubjectId> OccupantsAt(LocationId l, Chronon t) const override;
  std::vector<SubjectId> CurrentOccupants(LocationId l) const override;
  std::vector<Stay> StaysOf(SubjectId s) const override;
  std::vector<Stay> StaysIn(LocationId l) const override;
  std::vector<MovementDatabase::Contact> ContactsOf(
      SubjectId s, const TimeInterval& window,
      Chronon min_overlap) const override;
  size_t tracked_subjects() const override;
  size_t history_size() const override;

 private:
  const MovementDatabase* db_;
};

/// The sharded implementation: fans queries out over N per-shard
/// movement databases (all borrowed; they must outlive the view) and
/// merges the answers. `route` maps a subject to its owning shard, so
/// subject-keyed queries touch exactly that shard. Every subject must
/// live on at most one shard, the one `route` names (the partition
/// discipline of the sharded engines).
///
/// Thread-safety mirrors the engines' phase discipline: query only
/// while no batch is in flight.
class ShardedMovementView final : public MovementView {
 public:
  using ShardRouter = std::function<uint32_t(SubjectId)>;

  ShardedMovementView(std::vector<const MovementDatabase*> shards,
                      ShardRouter route);

  LocationId CurrentLocation(SubjectId s) const override;
  Result<Chronon> CurrentStaySince(SubjectId s) const override;
  LocationId LocationAt(SubjectId s, Chronon t) const override;
  std::vector<SubjectId> OccupantsAt(LocationId l, Chronon t) const override;
  std::vector<SubjectId> CurrentOccupants(LocationId l) const override;
  std::vector<Stay> StaysOf(SubjectId s) const override;
  std::vector<Stay> StaysIn(LocationId l) const override;
  std::vector<MovementDatabase::Contact> ContactsOf(
      SubjectId s, const TimeInterval& window,
      Chronon min_overlap) const override;
  size_t tracked_subjects() const override;
  size_t history_size() const override;

  /// Number of shards fanned over.
  size_t num_shards() const { return shards_.size(); }

 private:
  /// The shard owning `s`.
  const MovementDatabase& OwnerShard(SubjectId s) const;

  std::vector<const MovementDatabase*> shards_;
  ShardRouter route_;
};

}  // namespace ltam

#endif  // LTAM_QUERY_MOVEMENT_VIEW_H_
