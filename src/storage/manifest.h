// Copyright 2026 The LTAM Authors.
// The sharded runtime's checkpoint manifest.
//
// A `MANIFEST` file names the exact set of files that make up one
// consistent checkpoint cut of a DurableShardedSystem directory: the
// shared base snapshot (graph, profiles, authorizations, rules), one
// movement-snapshot segment per shard, and one write-ahead log per shard.
// Checkpointing writes every segment first, then publishes the new cut by
// atomically renaming a fresh manifest over the old one — the rename is
// the commit point, so a crash at any instant leaves either the old cut
// or the new one, never a mix.
//
// Format (line-oriented codec records):
//
//   manifest <format-version> <epoch> <num-shards>
//   base <file>
//   shard <k> <snapshot-file> <wal-file>   (one per shard, k ascending)
//   cold <k> <dropped-events> <seg-file> [...]
//                      (optional, at most one per shard: the shard's
//                       sealed cold segments in sequence order plus the
//                       cumulative count of events already dropped past
//                       the retention horizon; absent = no cold tier)
//   floor <k> <records>
//                      (optional, at most one per shard: the shard's
//                       replication position at the cut — records its
//                       earlier epochs' logs accepted, folded into the
//                       snapshots; absent = 0)
//   commit <record-count>
//
// A shard's WAL is the one file `events-<k>-<epoch>.wal` for the whole
// epoch. Releases that rotated WAL segments could commit a longer list
// on the shard record; such a manifest is refused with
// FailedPrecondition (checkpoint it with the release that wrote it).
// The `cold` record is emitted only for shards that actually sealed (or
// dropped) history, and the `floor` record only for shards whose floor
// is nonzero, so directories without tiering or logged history
// serialize byte-identically to the formats before them. The floor is a
// record of its own because a fourth field on `shard` reads as rotated
// WAL segments; a release that predates it refuses `floor` as an
// unknown record rather than restarting every position at 0.
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
  struct ShardFiles {
    std::string snapshot;  ///< Per-shard hot movement segment.
    std::string wal;       ///< Per-shard log tail since the cut.
    /// Sealed cold segments (storage/cold_codec.h), oldest first. Empty
    /// for shards that never sealed.
    std::vector<std::string> cold;
    /// Events dropped past the retention horizon (cumulative), so the
    /// logical history length survives recovery.
    uint64_t dropped_events = 0;
    /// Replication position of the first record of `wal`: every record
    /// the shard's earlier logs accepted, so positions survive restarts.
    uint64_t floor = 0;
  };
  /// Indexed by shard; size() == num_shards after a successful load.
  std::vector<ShardFiles> shards;
};

/// Canonical manifest file name inside a durable directory.
inline const char* ManifestFileName() { return "MANIFEST"; }

/// Serializes `manifest` to `path` durably (WriteFileAtomically).
Status SaveManifest(const ShardManifest& manifest, const std::string& path);

/// Parses and validates a manifest file. Errors on unknown records,
/// duplicate or missing shard entries, bad counts, path-escaping file
/// names, or a missing/incorrect commit record; a shard record naming
/// rotated WAL segments is FailedPrecondition.
Result<ShardManifest> LoadManifest(const std::string& path);

}  // namespace ltam

#endif  // LTAM_STORAGE_MANIFEST_H_
