// Copyright 2026 The LTAM Authors.
// AccessRuntime: the one front door over the LTAM enforcement pipeline.
//
// Every runtime is the subject-sharded batch pipeline
// (engine/sharded_engine.h), at any shard count including one, driving
// one set of stores (graph, profiles, authorizations, rules). In memory
// the runtime owns the pipeline and the stores itself; setting
// RuntimeOptions::durable_dir makes it crash-safe, and then a
// DurableShardedSystem (storage/durable_sharded_system.h) owns both and
// write-ahead logs through hooks on the same pipeline. Only the
// durable-only calls (replication, promotion, checkpoints, the
// durability barrier and storage stats) branch on which of the two
// holds them. The facade presents one uniform, Result/Status-only
// surface, in the spirit of the paper's layered Figure-3 architecture:
// callers program against the model, not against a particular
// scaling/durability point. The per-event AccessControlEngine stays
// outside the facade as the reference oracle the equivalence suites
// compare against.
//
// Uniformity contract (equivalence-tested across shard counts x
// durability against the AccessControlEngine oracle by
// tests/access_runtime_test.cc):
//  - Apply/ApplyBatch produce byte-identical decision streams for the
//    same event stream, whatever the shard count or durability;
//  - ApplyBatch returns decisions + drained alerts + durability outcome
//    in one BatchResult (no separate TakeAlerts/TakeBatchError calls);
//  - alerts are deterministically ordered by (time, subject, location,
//    type) in every configuration;
//  - Mutate() is the only door to the mutable stores, so the "mutations
//    only between batches" rule is enforced, not documented: applying
//    events from inside Mutate fails with kFailedPrecondition, and
//    shared caches (the graph's flattened adjacency) are re-warmed when
//    the mutation ends;
//  - the read side is a MovementView that fans queries out over the
//    per-shard views — no merged full copy — and the built-in
//    QueryEngine answers over it.

#ifndef LTAM_RUNTIME_ACCESS_RUNTIME_H_
#define LTAM_RUNTIME_ACCESS_RUNTIME_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/access_control_engine.h"
#include "engine/events.h"
#include "engine/location_resolver.h"
#include "query/movement_view.h"
#include "query/query_engine.h"
#include "storage/durable_sharded_system.h"
#include "storage/log_pipeline.h"
#include "storage/snapshot.h"
#include "util/result.h"
#include "util/span.h"

namespace ltam {

/// Which engine the facade runs on and how.
struct RuntimeOptions {
  /// Subject shards of the batch pipeline. Shard 0 runs on the calling
  /// thread and each further shard on its own worker, so 1 (the
  /// default) is a one-shard pipeline with no thread hand-off. Every
  /// shard count makes byte-identical decisions.
  uint32_t num_shards = 1;
  /// When set, the runtime is crash-safe and rooted at this existing
  /// directory (one write-ahead log + per-shard snapshots under a
  /// MANIFEST). When the directory already holds a committed state, that
  /// state wins over `initial`, and its pinned shard count wins over
  /// `num_shards` (see RuntimeStats::shard_count_overridden). A directory
  /// in the removed sequential layout (state.snap/events.wal, no
  /// MANIFEST) is refused with kFailedPrecondition.
  std::optional<std::string> durable_dir;
  /// Per-engine decision/monitoring knobs.
  EngineOptions engine;
  /// Durable runtimes: the write path (storage/log_pipeline.h). Shard
  /// workers only buffer their records; the runtime's one log thread
  /// writes and fsyncs its one file (once per 4 batches or 1 MiB, and
  /// whenever its queue drains). ApplyBatch returns before its fsync
  /// lands, and callers choose latency vs durability per call via
  /// BatchResult::watermark and WaitDurable() (a network server always
  /// waits before it answers). An idle runtime converges to durable ==
  /// applied. A failed write or fsync sticky-fails the log, and with it
  /// every shard's durability (watermark frozen), until Checkpoint().
  /// Tests inject faults here.
  DurabilityOptions durability;
  /// Telemetry (may be null; borrowed, must outlive the runtime). When
  /// set, the facade records "runtime.apply_batch" and
  /// "runtime.checkpoint" duration histograms, and the registry flows
  /// into durability.metrics (the "wal.sync" histogram) unless the
  /// caller pointed that at a different registry already.
  MetricsRegistry* metrics = nullptr;
  /// Movement-history tiering + retention (engine/movement_db.h):
  /// checkpoints seal oversized hot shards into columnar cold segments,
  /// drop segments past the horizon, and compact the rest. Durable
  /// runtimes only — Open() rejects a non-default value without
  /// durable_dir with kInvalidArgument rather than silently keeping
  /// unbounded history.
  RetentionOptions retention;
};

/// Everything one ApplyBatch call produced.
struct BatchResult {
  /// One decision per event, in input order. Every event was applied:
  /// the durable layer logs before it applies and never refuses one.
  std::vector<Decision> decisions;
  /// Every alert pending after the batch (including ones buffered by
  /// earlier Apply/Tick calls), ordered by (time, subject, location,
  /// type). Draining is built in — there is no separate TakeAlerts.
  std::vector<Alert> alerts;
  /// Durability outcome. OK on in-memory runtimes. Non-OK (IO kind) when
  /// the runtime's log is sticky-failed: the batch's events were applied,
  /// but their durability is in doubt until a Checkpoint, so do NOT
  /// resubmit them. A failure of this batch's own write or fsync can
  /// land after ApplyBatch returns; WaitDurable() reports it.
  Status durability;
  /// The runtime's durability position after this batch: log records
  /// accepted (events applied) vs fsynced. In-memory runtimes report
  /// durable == applied; a durable runtime trails until its log thread
  /// fsyncs the batch (WaitDurable waits for that).
  DurabilityWatermark watermark;
};

/// A point-in-time snapshot of runtime counters and configuration.
struct RuntimeStats {
  /// Shards actually in effect: the requested count, or the count a
  /// recovered durable directory pinned.
  uint32_t num_shards = 1;
  /// Shards the caller asked for.
  uint32_t requested_shards = 1;
  /// True when the runtime persists (durable_dir was set).
  bool durable = false;
  /// True when the durable directory's committed state pinned a shard
  /// count different from the requested one (the directory wins).
  bool shard_count_overridden = false;
  /// Durable runtimes: committed checkpoint epoch and events appended
  /// to the current log tails.
  uint64_t epoch = 0;
  size_t wal_events = 0;
  /// Engine counters, aggregated across shards.
  size_t requests_processed = 0;
  size_t requests_granted = 0;
  /// Facade ingest counters. Every front end (the library caller, the
  /// ltam-serve /stats endpoint, the shell) reports these same numbers —
  /// there is no side channel to count ingestion twice.
  size_t batches_applied = 0;
  size_t events_applied = 0;
  /// ApplyBatch calls rejected whole before application: on a replica,
  /// or issued inside Mutate().
  size_t batches_rejected = 0;
  /// Alerts raised but not yet drained.
  size_t pending_alerts = 0;
  /// The durability watermark: records accepted (events applied) vs
  /// fsynced. Equal on in-memory runtimes; durable trails applied while
  /// the log thread's fsyncs are in flight.
  uint64_t applied_offset = 0;
  uint64_t durable_offset = 0;
  /// Physical log failures observed (see BatchResult::durability for
  /// the per-batch view): records a failed write lost or a failed log
  /// dropped, fsyncs that failed. Zero on in-memory runtimes.
  uint64_t wal_append_failures = 0;
  uint64_t wal_sync_failures = 0;
  /// Replication role and promotion epoch (replication/epoch.h): a
  /// replica refuses writes and applies shipped records instead.
  /// Carried over the wire since protocol v4.
  bool replica = false;
  uint64_t replication_epoch = 0;
  /// Movement-history tiering (durable runtimes; zero in memory).
  /// Carried over the wire since protocol v6.
  uint64_t cold_segments = 0;     ///< Sealed segments currently live.
  uint64_t cold_bytes = 0;        ///< Approx bytes held by cold columns.
  uint64_t dropped_events = 0;    ///< Events dropped past the horizon.
  uint64_t compaction_runs = 0;   ///< Segment merges since Open.
  /// Shard snapshots rewritten by checkpoints since Open — the
  /// incremental-checkpoint pin (clean shards re-reference their file).
  uint64_t checkpoint_dirty_segments = 0;
};

/// The mutable stores handed to Mutate() callbacks. Movement state is
/// deliberately absent: it belongs to the engines (and, sharded, to the
/// per-shard views); mutating it out from under them would corrupt
/// enforcement. Read it through movements().
struct MutableStores {
  MultilevelLocationGraph& graph;
  UserProfileDatabase& profiles;
  AuthorizationDatabase& auth_db;
  std::vector<AuthorizationRule>& rules;
};

/// One enforcement runtime. All methods must be called from one control
/// thread (the same discipline every underlying engine already
/// required); the pipeline parallelizes across shards internally.
class AccessRuntime {
 public:
  /// Opens a runtime over `initial` (graph, profiles, authorizations,
  /// rules, and optionally pre-seeded movement history — open stays are
  /// resumed exactly as durable recovery would). With durable_dir set,
  /// an existing committed state in the directory supersedes `initial`.
  static Result<std::unique_ptr<AccessRuntime>> Open(
      SystemState initial, RuntimeOptions options = {});

  ~AccessRuntime();
  AccessRuntime(const AccessRuntime&) = delete;
  AccessRuntime& operator=(const AccessRuntime&) = delete;

  // --- Event surface -------------------------------------------------------

  /// Applies one event (logged first on durable runtimes) and returns
  /// its decision. Alerts it raises stay buffered for the next
  /// ApplyBatch/DrainAlerts. Non-OK when the log is sticky-failed
  /// (applied, durability in doubt — the message says do not
  /// resubmit), or when called from inside Mutate.
  Result<Decision> Apply(const AccessEvent& event);

  /// Applies a batch (fanned out across the shards;
  /// events of one subject must be in nondecreasing time order) and
  /// returns decisions, drained alerts, and the durability outcome in
  /// one struct. Non-OK only for contract violations (inside Mutate).
  Result<BatchResult> ApplyBatch(Span<const AccessEvent> batch);

  /// Resolves a raw position fix through the graph's boundary polygons
  /// (the resolver is built lazily and rebuilt after Mutate) and applies
  /// the resulting event: an observation when the fix lands inside some
  /// boundary, a site exit when it lands outside while the subject is
  /// recorded inside, nothing otherwise. A refused observation or exit
  /// surfaces as kFailedPrecondition carrying the deny reason in its
  /// message (the uniform event path folds the engine's finer-grained
  /// refusal codes into the decision, unlike the raw
  /// AccessControlEngine::HandlePositionFix).
  Status ApplyFix(const PositionFix& fix);

  /// Patrol tick on every shard (logged on durable runtimes): raises
  /// overstay alerts into the pending buffer.
  Status Tick(Chronon t);

  /// Pending alerts in deterministic (time, subject, location, type)
  /// order, clearing the buffer. Per-event flows use this; ApplyBatch
  /// drains implicitly.
  std::vector<Alert> DrainAlerts();

  // --- Control surface -----------------------------------------------------

  /// Runs `fn` over the mutable stores between batches — the only legal
  /// mutation window, now enforced: event application from inside `fn`
  /// fails, reentrant Mutate fails, and shared read caches are re-warmed
  /// after `fn` returns. Durable runtimes do not write-ahead log
  /// mutations, so every `fn` — even a failed one, since mutations are
  /// applied in place and a partial mutation is still the live state —
  /// is followed by a checkpoint that keeps recovery equivalent to the
  /// live state.
  Status Mutate(const std::function<Status(const MutableStores&)>& fn);

  /// Durability barrier: blocks until every accepted log record is
  /// fsynced, or returns the log's sticky error. The log thread fsyncs
  /// a batch as soon as its queue drains, so the wait costs no extra
  /// fsync. In-memory runtimes return OK immediately. Checkpoint() is
  /// the stronger barrier (it also persists snapshots and truncates the
  /// logs).
  Status WaitDurable();

  /// The current durability position (see BatchResult::watermark).
  /// In-memory runtimes report durable == applied.
  DurabilityWatermark Watermark() const;

  /// Durable runtimes: persist the full state as a new epoch and
  /// truncate the logs (this also repairs a sticky-failed log).
  /// In-memory runtimes: a no-op returning OK.
  Status Checkpoint();

  /// Counters and effective configuration.
  RuntimeStats Stats() const;

  /// What Open found in a durable directory: whether it recovered a
  /// committed cut, and how many log records it replayed (and therefore
  /// committed as the recovery cut). All zero in memory.
  using RecoveryReport = DurableShardedSystem::RecoveryReport;
  RecoveryReport recovery() const;

  // --- Replication surface -------------------------------------------------
  // Only durable runtimes replicate: the unit of shipping is the
  // runtime's WAL record stream, and the replication position is the
  // monotonic record count Watermark() reports (the floor, persisted in
  // the MANIFEST, + the records appended since Open), so it survives
  // restarts. A tick is one record. Epoch semantics live in
  // replication/epoch.h (promotion counter, persisted as REPL_EPOCH in
  // the durable directory; fencing gates compare it).

  /// True when this runtime refuses writes and applies shipped records
  /// instead (DemoteToReplica).
  bool is_replica() const { return replica_; }

  /// The persisted replication epoch (0 when never promoted, and always
  /// 0 on in-memory runtimes — they have nowhere to persist one).
  uint64_t replication_epoch() const { return replication_epoch_; }

  /// Turns this runtime into a read-only replica: Apply/ApplyBatch/
  /// ApplyFix/Tick/Mutate fail with kFailedPrecondition from here on;
  /// ApplyReplicated becomes the only write path. Requires a durable
  /// runtime. Demotion is a boot-time decision, taken right after Open
  /// (hosts derive the scripted rules into the initial state before
  /// Open, so no mutation window is left to run) — there is no
  /// demote-back except reopening the directory.
  Status DemoteToReplica();

  /// Failover: durably bumps the replication epoch (persisted BEFORE a
  /// single write is accepted) and re-enables writes. Returns the new
  /// epoch. Legal on a primary too — the bump fences any stream the old
  /// epoch could still ship.
  Result<uint64_t> Promote();

  /// Replica-side: adopts a higher epoch observed on a valid stream
  /// (the replica lagged a promotion). A lower epoch is a fencing error;
  /// equal is a no-op.
  Status AdoptReplicationEpoch(uint64_t epoch);

  /// Where a replica believes the primary lives ("host:port"). When
  /// set, write refusals carry a structured ` [primary=host:port]`
  /// token so clients can re-dial instead of guessing; empty (the
  /// default) keeps the bare refusal. The server owns this hint — it
  /// tracks ServerOptions::replica_of and every repoint.
  void SetPrimaryRedirect(std::string endpoint) {
    primary_redirect_ = std::move(endpoint);
  }
  const std::string& primary_redirect() const { return primary_redirect_; }

  /// The replication position (the monotonic durable record count) —
  /// what a replica reports in its subscription hello so the primary
  /// resumes shipping exactly past the last durable record.
  Result<uint64_t> ReplicationPosition() const;

  /// A slice of the committed WAL record stream starting at position
  /// `from` (primary side of the shipper). Only durable records ship;
  /// `next` is the position after the last returned record, `durable`
  /// the current durable position. A `from` below the retained floor (a
  /// checkpoint retired it) fails: the replica must resync from a
  /// snapshot.
  using ReplicationSlice = DurableShardedSystem::ReplicationSlice;
  Result<ReplicationSlice> ReadReplicationSlice(uint64_t from,
                                                size_t max_records);

  /// Replica side: write-ahead logs and applies shipped records starting
  /// at position `start` (records below the current position are
  /// skipped — reconnect overlap is idempotent; a gap is an error), each
  /// event on its subject's shard and each tick on every shard. Returns
  /// the decisions the events produced (byte-identical to the
  /// primary's), alerts raised, and the new position.
  using ReplicationApplyResult = DurableShardedSystem::ReplicationApply;
  Result<ReplicationApplyResult> ApplyReplicated(
      uint64_t start, const std::vector<std::string>& records);

  // --- Read surface --------------------------------------------------------

  const MultilevelLocationGraph& graph() const { return state_->graph; }
  const UserProfileDatabase& profiles() const { return state_->profiles; }
  const AuthorizationDatabase& auth_db() const { return state_->auth_db; }
  const std::vector<AuthorizationRule>& rules() const { return state_->rules; }
  /// The movement read side: per-shard fan-out (subject-keyed queries
  /// touch only the owning shard). Valid between event applications.
  const MovementView& movements() const { return *view_; }
  /// A query engine wired over this runtime's stores and movement view.
  const QueryEngine& query() const { return *query_; }

 private:
  explicit AccessRuntime(RuntimeOptions options);

  /// The kFailedPrecondition every write path returns while demoted;
  /// appends the structured primary token when the hint is set.
  Status ReplicaRefusal(const char* op) const;

  /// The last batch's durability outcome (OK in memory).
  Status TakeBatchError();

  RuntimeOptions options_;
  /// Set iff options_.durable_dir is: the durable system then owns the
  /// stores and the engine. Every durable-only call branches on this.
  std::unique_ptr<DurableShardedSystem> durable_;
  /// In memory, the runtime owns the stores and the engine itself.
  std::unique_ptr<SystemState> owned_state_;
  std::unique_ptr<ShardedDecisionEngine> owned_engine_;
  /// The stores and the engine every call drives, wherever they live.
  SystemState* state_ = nullptr;
  ShardedDecisionEngine* engine_ = nullptr;
  std::unique_ptr<MovementView> view_;
  std::unique_ptr<QueryEngine> query_;
  /// Lazily built from the graph's boundaries; reset by Mutate.
  std::optional<LocationResolver> resolver_;
  bool in_mutate_ = false;
  bool replica_ = false;
  uint64_t replication_epoch_ = 0;
  /// Advertised in write refusals when non-empty (SetPrimaryRedirect).
  std::string primary_redirect_;
  size_t batches_applied_ = 0;
  size_t events_applied_ = 0;
  size_t batches_rejected_ = 0;
  /// Resolved once in the ctor from options_.metrics (null when
  /// uninstrumented).
  Histogram* apply_histogram_ = nullptr;
  Histogram* checkpoint_histogram_ = nullptr;
};

/// Renders stats as aligned "name: value" lines — the one rendering the
/// shell uses for both a local runtime's Stats() and a remote server's
/// (the wire carries the struct verbatim, so the reports match).
std::string RuntimeStatsToString(const RuntimeStats& stats);

/// Registers the scripted rules of `state` (SystemState::rules, e.g.
/// from a policy script) with a RuleEngine and derives the implied
/// authorizations into its ledger. `derived`, when non-null, receives
/// the number of authorizations added. Hosts that boot from a policy
/// script call this before AccessRuntime::Open, so a fresh durable
/// directory's epoch 0 already holds the derivations; a recovered
/// directory ignores the initial state and keeps the rules, derived
/// records and spent entries its snapshot carries.
Status DeriveScriptedRules(SystemState* state, size_t* derived = nullptr);

/// The same derivation over an open runtime's stores, inside one Mutate
/// window (so a durable runtime checkpoints after it). A runtime that
/// holds no rules gets no window: `derived` is set to 0 and nothing is
/// checkpointed.
Status RegisterAndDeriveScriptedRules(AccessRuntime* runtime,
                                      size_t* derived = nullptr);

}  // namespace ltam

#endif  // LTAM_RUNTIME_ACCESS_RUNTIME_H_
