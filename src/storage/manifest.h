// Copyright 2026 The LTAM Authors.
// The sharded runtime's checkpoint manifest.
//
// A `MANIFEST` file names the exact set of files that make up one
// consistent checkpoint cut of a DurableShardedSystem directory: the
// shared base snapshot (graph, profiles, authorizations, rules), one
// movement-snapshot segment per shard, and the runtime's one write-ahead
// log. Checkpointing writes every segment first, then publishes the new
// cut by atomically renaming a fresh manifest over the old one — the
// rename is the commit point, so a crash at any instant leaves either
// the old cut or the new one, never a mix.
//
// Format version 2 (line-oriented codec records):
//
//   manifest 2 <epoch> <num-shards>
//   base <file>
//   wal <file> <floor>
//                      (the log tail since the cut, `events-<epoch>.wal`,
//                       and its replication position: every record the
//                       runtime's earlier logs accepted, folded into the
//                       snapshots)
//   shard <k> <snapshot-file>              (one per shard, k ascending)
//   cold <k> <dropped-events> <seg-file> [...]
//                      (optional, at most one per shard: the shard's
//                       sealed cold segments in sequence order plus the
//                       cumulative count of events already dropped past
//                       the retention horizon; absent = no cold tier)
//   commit <record-count>
//
// Version 1 gave every shard its own log: `shard <k> <snapshot> <wal>`
// and an optional `floor <k> <records>` per shard, with no `wal` record.
// LoadManifest still reads it — the shard logs land in
// `v1_shard_wals` and their floors are summed into `floor` — so that
// Open can replay them and commit the directory in version 2. A version
// 1 shard record that lists rotated WAL segments (an older release) is
// refused with FailedPrecondition (checkpoint it with the release that
// wrote it).
//
// The trailing `commit` record carries the number of records before it;
// a manifest without a matching commit record (torn write, truncation)
// is rejected, as is any record after it. File names are validated to be
// plain names (no path separators) so a corrupted manifest can never
// point recovery outside its own directory.

#ifndef LTAM_STORAGE_MANIFEST_H_
#define LTAM_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace ltam {

/// One checkpoint cut of a sharded durable directory.
struct ShardManifest {
  /// Monotonically increasing checkpoint number; file names embed it.
  uint64_t epoch = 0;
  /// Fixed at directory creation; the subject partition depends on it.
  uint32_t num_shards = 1;
  /// Shared state snapshot (graph/profiles/authorizations/rules).
  std::string base_snapshot;
  /// The runtime's log tail since the cut (empty in a version-1 cut).
  std::string wal;
  /// Replication position of the first record of `wal`: every record
  /// the runtime's earlier logs accepted, so positions survive restarts.
  uint64_t floor = 0;
  struct ShardFiles {
    std::string snapshot;  ///< Per-shard hot movement segment.
    /// Sealed cold segments (storage/cold_codec.h), oldest first. Empty
    /// for shards that never sealed.
    std::vector<std::string> cold;
    /// Events dropped past the retention horizon (cumulative), so the
    /// logical history length survives recovery.
    uint64_t dropped_events = 0;
  };
  /// Indexed by shard; size() == num_shards after a successful load.
  std::vector<ShardFiles> shards;
  /// A version-1 cut's per-shard logs, indexed by shard (empty in
  /// version 2). Only LoadManifest fills it; SaveManifest refuses it.
  std::vector<std::string> v1_shard_wals;
};

/// Canonical manifest file name inside a durable directory.
inline const char* ManifestFileName() { return "MANIFEST"; }

/// Serializes `manifest` to `path` durably (WriteFileAtomically).
Status SaveManifest(const ShardManifest& manifest, const std::string& path);

/// Parses and validates a manifest file of either version. Errors on
/// unknown records, duplicate or missing shard or wal entries, bad
/// counts, path-escaping file names, or a missing/incorrect commit
/// record; a version-1 shard record naming rotated WAL segments is
/// FailedPrecondition.
Result<ShardManifest> LoadManifest(const std::string& path);

}  // namespace ltam

#endif  // LTAM_STORAGE_MANIFEST_H_
