// Copyright 2026 The LTAM Authors.
// Whole-system snapshots.
//
// Serializes the four stores of Figure 3 (location layout, user profiles,
// authorizations, movements) plus the registered rules into one file of
// codec lines (storage/codec.h), and loads them back. Together with the
// WAL this gives the persistence story: snapshot periodically, replay
// the tail of the log on recovery.
//
// A save writes through one FileWriter, 64 KiB at a time, and fsyncs it
// before it returns, so a save that returns OK left a durable file. A
// load reads every record strictly: exact field counts, ids within 32
// bits, and closed word sets (`composite|primitive`, `derived|explicit`,
// `0|1`, a move's `out`); an error names the file and the line.

#ifndef LTAM_STORAGE_SNAPSHOT_H_
#define LTAM_STORAGE_SNAPSHOT_H_

#include <string>
#include <vector>

#include "core/auth_database.h"
#include "core/rules/rule.h"
#include "engine/movement_db.h"
#include "graph/multilevel_graph.h"
#include "profile/user_profile.h"

namespace ltam {

/// Everything a snapshot round-trips.
struct SystemState {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  MovementDatabase movements;
  std::vector<AuthorizationRule> rules;
};

/// Serializes `state` to `path` (overwrites) and fsyncs it.
Status SaveSnapshot(const SystemState& state, const std::string& path);

/// Loads a snapshot. Rules are reconstructed through the *default*
/// operator registries; snapshots containing custom operators need the
/// overload taking explicit registries.
Result<SystemState> LoadSnapshot(const std::string& path);

/// Loads a snapshot resolving subject/location operators through the
/// given registries (for deployments with custom operators).
Result<SystemState> LoadSnapshot(const std::string& path,
                                 const SubjectOperatorRegistry& subject_ops,
                                 const LocationOperatorRegistry& location_ops);

/// Serializes one movement database to `path` (overwrites) as a stream
/// of `move` records and fsyncs it — the per-shard snapshot segments of
/// the sharded durable runtime persist each shard's movement view this
/// way.
Status SaveMovements(const MovementDatabase& movements,
                     const std::string& path);

/// Loads a movement segment written by SaveMovements.
Result<MovementDatabase> LoadMovements(const std::string& path);

}  // namespace ltam

#endif  // LTAM_STORAGE_SNAPSHOT_H_
