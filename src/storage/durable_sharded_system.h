// Copyright 2026 The LTAM Authors.
// Durable sharded LTAM runtime: the batch decision pipeline of
// engine/sharded_engine.h made crash-safe. It is the only durable
// runtime, at every shard count (one included).
//
// Layout of one durable directory (all names recorded in `MANIFEST`):
//
//   MANIFEST                    the committed checkpoint cut (see
//                               storage/manifest.h; atomically renamed)
//   base-<epoch>.snap           shared state: graph, profiles,
//                               authorization ledger, rules
//   shard-<k>-<epoch>.snap      shard k's movement history at the cut
//   cold-<k>-<n>.seg            shard k's sealed cold segments
//   events-<epoch>.wal          the runtime's one log tail since the cut
//
// Durability discipline: each shard worker appends every event of its
// batch slice to its own slot of the runtime's log *before* applying it
// (write-ahead, via ShardHooks::before_apply). Once every slice of the
// batch is done (ShardHooks::after_slices) the control thread publishes
// the batch: every slot's records move onto the log's queue in shard
// order and the one log thread (storage/log_pipeline.h) is woken. It
// writes each round with one write(2) and fsyncs the one file, batching
// fsyncs across engine batches (commit pipelining, bounded by a fixed
// group depth and byte count; a round that drains the queue fsyncs at
// once). Ticks and replica applies append through the control thread's
// own slot and publish the same way. The batch returns before its fsync
// lands; WaitDurable() waits for it, and the (applied, durable)
// watermark reports how far it has got.
// Records carry no shard: recovery routes each event by its subject and
// applies a tick to every shard.
//
// Decision streams are byte-identical to the in-memory runtime's (log
// failures surface through the watermark and failure counters, never
// by rewriting decisions) — the property the equivalence matrix
// enforces.
//
// Checkpoint() flushes the log (restoring durable == applied, even for
// a sticky-failed log, whose lost tail the snapshot supersedes), writes
// the dirty segments of the next epoch, publishes them by atomically
// renaming a fresh MANIFEST, hands the log thread the new epoch's empty
// WAL, then deletes the files the new cut no longer references. A crash
// at any instant leaves a committed cut. Checkpoints are INCREMENTAL: a
// shard whose snapshot is still exact — no record was logged through
// its slot since the previous cut, recovery and replication applied
// none to it, and its cold tier did not change — re-references its
// previous snapshot file in the new manifest instead of rewriting it,
// so checkpoint latency scales with the events since the last
// checkpoint, not with total history.
//
// With RetentionOptions::max_hot_events set, Checkpoint() also runs the
// per-shard tier maintenance pass first: shards whose hot history
// outgrew the bound seal their completed stays into immutable columnar
// cold segments (cold-<k>-<n>.seg, storage/cold_codec.h; `n` increases
// monotonically per shard and never recycles within a committed
// lineage), retention drops sealed segments whose every stay ended
// before the horizon, and compaction merges segment runs of
// compaction_fanin into one. New/merged segments are written + fsynced
// before the manifest rename commits them; files dropped by retention
// or superseded by compaction are swept with the old epoch's files.
//
// Open() recovers by loading the manifest's base snapshot and shard
// segments, rebuilding each shard's open-stay attribution with the
// choice CheckAccess would make (first in-window authorization wins),
// then truncating any torn final record off the WAL and replaying it in
// order on the opening thread, line by line (so replay memory stays one
// record however long the tail). When replay applied any record, Open
// then checkpoints the recovered state as the next epoch (the recovery
// cut), so appends start on an empty log and a replication position
// never names a pre-crash line; after a clean shutdown the log is
// empty, and appends resume on the same file with no new epoch. A
// version-1 directory (one WAL per shard) replays each shard's WAL into
// its shard and always commits the recovery cut, in the one-WAL layout.
// Recovered state is identical to a sequential replay of the surviving
// log prefix (the property tests/durable_sharded_test.cc enforces under
// crash injection).

#ifndef LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_
#define LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/cold_segment.h"
#include "engine/movement_db.h"
#include "engine/sharded_engine.h"
#include "storage/log_pipeline.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace ltam {

class Counter;
class Gauge;

/// Tuning knobs for the durable sharded runtime.
struct DurableShardedOptions {
  /// Shard count for a *fresh* directory. Recovery always reuses the
  /// manifest's count — the on-disk partition is fixed at creation. When
  /// a recovered manifest pins a different count the mismatch is logged,
  /// and num_shards() differs from the count requested here (the
  /// runtime reports that as RuntimeStats::shard_count_overridden).
  uint32_t num_shards = 4;
  /// Per-shard engine options.
  EngineOptions engine;
  /// The write path's telemetry and (tests only) fault injection.
  DurabilityOptions durability;
  /// Tiering + retention (engine/movement_db.h). max_hot_events == 0
  /// disables sealing entirely — the pre-tiering behavior.
  RetentionOptions retention;
};

/// A crash-safe, subject-sharded batch runtime rooted at one directory.
///
/// Lifecycle mirrors ShardedDecisionEngine: Open (recovers or
/// initializes), engine().EvaluateBatch/Tick/Checkpoint from one
/// control thread,
/// destroy (joins workers, then the log thread). Database mutations on
/// base() are only legal between batches and are NOT logged — persist
/// them via Checkpoint().
class DurableShardedSystem {
 public:
  /// Opens (or creates) the runtime in `dir`. A fresh directory is
  /// seeded from `initial` (its movement history is partitioned across
  /// the shards) and immediately checkpointed as epoch 0, so recovery
  /// never needs `initial` again; when a MANIFEST exists, `initial` is
  /// ignored and state is recovered from the committed cut. When replay
  /// applied any log record, Open commits the recovered state as the
  /// next epoch (the recovery cut) before it returns; a directory whose
  /// logs are empty (a clean shutdown) opens at its committed epoch.
  static Result<std::unique_ptr<DurableShardedSystem>> Open(
      const std::string& dir, SystemState initial,
      DurableShardedOptions options = {});

  ~DurableShardedSystem();
  DurableShardedSystem(const DurableShardedSystem&) = delete;
  DurableShardedSystem& operator=(const DurableShardedSystem&) = delete;

  // --- Logged entry points -------------------------------------------------
  //
  // Batches run through engine().EvaluateBatch(): each shard's worker
  // appends its slice to the log before applying, and the batch is
  // published once every slice is done.

  /// The durability outcome of the last batch's publish, cleared by the
  /// read: a non-OK status is the log's sticky failure, which means
  /// applied events' durability is in doubt (they must NOT be
  /// resubmitted), and it keeps reporting until a Checkpoint repairs it.
  Status TakeBatchError();

  /// Logs one tick record and applies it on every shard.
  Status Tick(Chronon t);

  // --- Durability ----------------------------------------------------------

  /// Persists the full state as a new epoch and hands the log a fresh,
  /// empty file. Subsequent recovery starts from here. Restores
  /// durable == applied: the snapshot supersedes any tail a
  /// sticky-failed log lost.
  Status Checkpoint();

  /// Durability barrier: blocks until every accepted log record is
  /// fsynced or the log is sticky-failed, then returns the sticky
  /// error. The log thread fsyncs every group it drains, so waiting
  /// forces no extra fsync (LogPipeline::Flush).
  Status WaitDurable();

  /// The runtime's durability position and replication position, in
  /// log records accepted (their events applied) vs fsynced, monotonic
  /// across checkpoints and restarts: the floor at Open (persisted in
  /// the MANIFEST) plus the records appended since.
  DurabilityWatermark Watermark() const;

  /// Physical log failures observed since Open (records a failed write
  /// lost or a failed log dropped, fsyncs that failed).
  uint64_t wal_append_failures() const;
  uint64_t wal_sync_failures() const;

  /// Records appended to the log since the last cut (reset by
  /// Checkpoint; a recovered tail replayed at Open is not counted).
  size_t wal_events() const;

  /// Current committed checkpoint epoch.
  uint64_t epoch() const { return epoch_; }

  /// What Open found in the directory.
  struct RecoveryReport {
    /// A committed cut was loaded (and `initial` ignored).
    bool recovered = false;
    /// Log records (events and ticks) replayed. Open committed a
    /// recovery cut when this is nonzero, and always for a version-1
    /// directory.
    uint64_t replayed_records = 0;
  };
  const RecoveryReport& recovery() const { return recovery_; }

  // --- Tiering & retention -------------------------------------------------

  /// Sealed cold segments currently live across every shard.
  uint64_t cold_segment_count() const;
  /// Approximate in-memory bytes held by the cold columns, all shards.
  uint64_t cold_bytes() const;
  /// Events dropped past the retention horizon, all shards, cumulative.
  uint64_t dropped_events() const;
  /// Shard snapshots rewritten by the most recent WriteEpoch — the
  /// incremental-checkpoint pin: clean shards re-reference their old
  /// file and do not count.
  uint64_t last_checkpoint_dirty_segments() const {
    return last_checkpoint_dirty_segments_;
  }
  /// Same, accumulated across every checkpoint since Open.
  uint64_t checkpoint_dirty_segments() const {
    return checkpoint_dirty_segments_;
  }
  /// Compaction merges performed since Open.
  uint64_t compaction_runs() const { return compaction_runs_; }
  /// Sealed segments dropped past the horizon since Open.
  uint64_t retention_dropped_segments() const {
    return retention_dropped_segments_;
  }

  // --- Replication ---------------------------------------------------------
  //
  // The replication position is the monotonic record count Watermark()
  // reports: the floor plus the live log's sequence. The MANIFEST
  // records the floor and Open adds the records recovery replayed, so a
  // position names the same record across restarts of either side.
  // Shipping reads committed records back out of the WAL; applying
  // decodes each line with the recovery decoder (DecodeEventLine),
  // appends the decoded record to the replica's own log in stream
  // order, where the one writer renders the primary's bytes
  // (write-ahead, so replica restart and onward promotion replay the
  // identical stream), and then applies it to its subject's shard, or
  // to every shard for a tick.

  /// One shippable slice of the log: encoded WAL lines
  /// (newline-stripped), starting at position `from`.
  struct ReplicationSlice {
    std::vector<std::string> records;
    uint64_t next = 0;     ///< Position after the last returned record.
    uint64_t durable = 0;  ///< The durable position at read time.
  };

  /// Reads up to `max_records` records starting at position `from`.
  /// Only durable records ship (a replica must never hold a record its
  /// primary could still lose); `from` at or beyond the durable position
  /// returns an empty slice — poll again. `from` below the retired
  /// floor is FailedPrecondition "resync required": a checkpoint folded
  /// those records into a snapshot and swept them. Callable from a
  /// shipper thread concurrent with the write path.
  Result<ReplicationSlice> ReadLogRecords(uint64_t from, size_t max_records);

  /// The outcome of applying one shipped chunk on a replica.
  struct ReplicationApply {
    /// One decision per access event actually applied (reconnect
    /// overlap and ticks produce none) — the replica's decision stream.
    std::vector<Decision> decisions;
    /// Alerts the applied events raised (drained so replica-side
    /// buffers cannot grow without a batch pipeline to empty them).
    std::vector<Alert> alerts;
    uint64_t position = 0;  ///< Applied position after the chunk.
  };

  /// Appends and applies one shipped chunk: records before the current
  /// position are skipped (a reconnect re-ships the durable suffix,
  /// which may overlap what this replica already applied), a chunk
  /// starting beyond it is a gap error. Each surviving record is
  /// decoded, appended to this directory's own log, then applied. NOT
  /// concurrency-safe with the batch write path — a replica has no batch
  /// traffic, and the caller serializes against reads with the runtime
  /// lock.
  Result<ReplicationApply> ApplyReplicatedRecords(
      uint64_t start, const std::vector<std::string>& records);

  // --- Introspection -------------------------------------------------------

  /// Shared state (graph/profiles/auth ledger/rules). Movement state
  /// lives in the per-shard views, not here.
  const SystemState& base() const { return base_; }
  SystemState& mutable_base() { return base_; }

  /// The engine this system logs for (its write-ahead hooks are
  /// installed at Open); AccessRuntime drives it directly.
  ShardedDecisionEngine& engine() { return *engine_; }

  uint32_t num_shards() const { return engine_->num_shards(); }
  uint32_t ShardOf(SubjectId s) const { return engine_->ShardOf(s); }
  const MovementDatabase& shard_movements(uint32_t shard) const {
    return engine_->shard_movements(shard);
  }

  /// Merged alerts from every shard (deterministically ordered),
  /// clearing the per-shard buffers.
  std::vector<Alert> DrainAlerts() { return engine_->DrainAlerts(); }

 private:
  DurableShardedSystem(std::string dir, DurableShardedOptions options);

  std::string FilePath(const std::string& name) const;
  std::string BaseSnapName(uint64_t epoch) const;
  std::string ShardSnapName(uint32_t shard, uint64_t epoch) const;
  /// Cold segment files are named per shard with a monotonically
  /// increasing index (NOT the epoch: the same file is referenced by
  /// every subsequent manifest until retention or compaction retires
  /// it).
  std::string ColdSegName(uint32_t shard, uint64_t index) const;
  std::string WalName(uint64_t epoch) const;

  /// Constructs the engine over base_ with `num_shards` shards, and the
  /// log with one slot per shard (its thread starts here).
  void InitEngine(uint32_t num_shards);

  /// Repairs and replays the committed log(s) `manifest` names, in
  /// order on this thread, marking each shard a record replayed into
  /// stale: the one WAL, or a version-1 cut's per-shard WALs, each into
  /// its own shard.
  Status ReplayLogs(const ShardManifest& manifest);

  /// Writes the dirty segments of `epoch` + its manifest and hands the
  /// log the epoch's fresh WAL; clean shards re-reference their
  /// previous snapshot file. On success the committed cut is in
  /// manifest_ and every snapshot_stale_ mark is cleared.
  Status WriteEpoch(uint64_t epoch);

  /// Checkpoint's tier maintenance pass: seals oversized hot shards,
  /// drops sealed segments past the retention horizon, merges segment
  /// runs of compaction_fanin. Marks shards whose hot snapshot must be
  /// rewritten in snapshot_stale_. No-op unless
  /// options_.retention.max_hot_events > 0.
  void MaintainColdTiers();

  /// Writes + fsyncs every not-yet-persisted cold segment file (then
  /// the directory, so the names survive crash before the manifest
  /// rename references them).
  Status PersistColdFiles();

  /// Pushes the cold-tier gauges (storage.cold_segments/.cold_bytes)
  /// to the registry, if one is wired.
  void UpdateColdGauges();

  /// Best-effort unlink of cold-*.seg files in dir_ that the committed
  /// manifest does not reference (a crash between segment write and
  /// manifest publish leaves such orphans).
  void SweepOrphanColdFiles();

  /// Installs the write-ahead hooks on the engine.
  void InstallHooks();

  /// Best-effort removal of a superseded epoch's files (as named by its
  /// manifest) that the committed cut no longer references.
  void RemoveEpochFiles(const ShardManifest& old_manifest);

  std::string dir_;
  DurableShardedOptions options_;
  /// Shared stores the engine borrows; movements stays empty (movement
  /// state lives in the shard views).
  SystemState base_;
  std::unique_ptr<ShardedDecisionEngine> engine_;
  /// The runtime's log, for its whole life: slot k < num_shards() is
  /// appended by shard k's worker during a batch, slot num_shards() by
  /// the control thread for ticks and replica applies between batches.
  /// Checkpoints swap its file.
  std::unique_ptr<LogPipeline> log_;
  /// The last batch's publish outcome (TakeBatchError).
  Status batch_error_;
  /// The committed cut. Only the control thread (Open/Checkpoint)
  /// writes it, and it does so under manifest_mu_, together with the
  /// log's file swap, because shipper threads snapshot {WAL name, floor,
  /// durable sequence} under the same lock. The control thread's own
  /// reads need no lock.
  ShardManifest manifest_;
  mutable std::mutex manifest_mu_;
  uint64_t epoch_ = 0;
  RecoveryReport recovery_;
  /// The replication position of the log's sequence 0: the committed
  /// MANIFEST floor at Open plus the records recovery replayed.
  uint64_t floor_ = 0;
  /// One shard's on-disk cold tier entry. The in-memory segment list of
  /// shard k's MovementDatabase and cold_files_[k] stay index-aligned.
  struct ColdFile {
    std::string name;
    std::shared_ptr<const ColdSegment> segment;
    /// False for segments sealed/merged since the last checkpoint; the
    /// file is written + fsynced before the next manifest publish.
    bool persisted = false;
  };
  /// Per-shard cold tier, oldest segment first. Only the control
  /// thread (Open/Checkpoint) touches it.
  std::vector<std::vector<ColdFile>> cold_files_;
  /// Per-shard naming counter for the next sealed/merged segment file.
  std::vector<uint64_t> next_cold_index_;
  /// Shards whose previous snapshot is stale although their log slot
  /// may be empty: recovery or replication applied records to them, or
  /// the tier maintenance pass sealed hot history. Cleared only by a
  /// committed WriteEpoch.
  std::vector<bool> snapshot_stale_;
  uint64_t last_checkpoint_dirty_segments_ = 0;
  uint64_t checkpoint_dirty_segments_ = 0;
  uint64_t compaction_runs_ = 0;
  uint64_t retention_dropped_segments_ = 0;
  /// Resolved once from options_.durability.metrics (null = off).
  Counter* dirty_segments_counter_ = nullptr;
  Counter* compaction_runs_counter_ = nullptr;
  Counter* retention_dropped_counter_ = nullptr;
  Gauge* cold_segments_gauge_ = nullptr;
  Gauge* cold_bytes_gauge_ = nullptr;
  Gauge* resident_bytes_gauge_ = nullptr;
};

}  // namespace ltam

#endif  // LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_
