// Copyright 2026 The LTAM Authors.
// Sharded, batched access-decision pipeline.
//
// The single-threaded AccessControlEngine reproduces Figure 3 faithfully
// but serializes every request through one movement database. At
// production scale (the SARS-scenario deployment of Section 1 tracks a
// whole campus) the event stream is naturally partitionable: every
// decision for subject s depends only on s's authorizations, s's movement
// history, and the read-only location graph — Definition 4 binds each
// authorization to a single subject, so two subjects never contend on
// ledger state.
//
// ShardedDecisionEngine exploits that: subjects are hash-partitioned
// across N shards, each shard owns a private MovementDatabase view and a
// private AccessControlEngine (hence a private alert buffer), and each
// batch is split into per-shard slices. Shard 0's slice runs on the
// calling thread; shards 1..N-1 each have a persistent worker thread
// that drains theirs in parallel. One rule for every shard count, so a
// one-shard engine is the sequential engine plus the batch split — no
// thread hand-off. Within a batch, events of one subject are processed
// in batch order on one shard, so decisions are byte-identical to
// running the sequential engine event-by-event (the equivalence property
// checked by tests/sharded_engine_test.cc).
//
// The shared AuthorizationDatabase is safe under this discipline: reads
// go through its subject-bucketed candidate cache, ledger updates touch
// only records owned by the deciding shard's subjects, and mutations
// (rule derivation, revocation) happen between batches on the control
// thread.

#ifndef LTAM_ENGINE_SHARDED_ENGINE_H_
#define LTAM_ENGINE_SHARDED_ENGINE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/access_control_engine.h"
#include "util/span.h"

namespace ltam {

/// Applies one AccessEvent to an engine and renders the outcome as a
/// Decision:
///  - kRequestEntry: the engine's Definition-7 decision, verbatim;
///  - kRequestExit: grant with kInvalidAuth when the exit was recorded,
///    Deny(kExitRejected) when it was refused (subject not inside, or an
///    out-of-order event);
///  - kObserve: grant with kInvalidAuth when the observation was accepted
///    (its security outcome travels through alerts, not decisions);
///    Deny(kObservationRejected) when the engine refused it outright
///    (unknown location, out-of-order time).
/// Both the sharded workers and sequential baselines use this function,
/// so "identical decisions" is a property of the pipeline, not of
/// per-event mapping choices.
Decision ApplyAccessEvent(AccessControlEngine* engine, const AccessEvent& e);

/// Tuning knobs for the sharded pipeline.
struct ShardedEngineOptions {
  /// Number of shards (clamped to >= 1). Shard 0 runs on the caller, so
  /// this spawns num_shards - 1 worker threads.
  uint32_t num_shards = 4;
  /// Per-shard engine options.
  EngineOptions engine;
};

/// Worker callbacks, the seam the durable runtime plugs into. Neither
/// blocks on an fsync: the log accepts the record and lets the
/// runtime's log thread make it durable later (the durability watermark
/// reports when).
struct ShardHooks {
  /// Invoked for every event before it is applied, on the thread that
  /// evaluates the shard's slice (the caller for shard 0, the shard's
  /// worker otherwise) — write-ahead: append the event to the shard's
  /// slot of the log here. It cannot refuse the event: acceptance is the
  /// append, and a later write or fsync failure surfaces through the
  /// durability watermark, never through a decision.
  std::function<void(uint32_t shard, const AccessEvent& event)>
      before_apply;
  /// Invoked once per EvaluateBatch on the calling thread, after every
  /// slice has finished: the group-commit boundary, where the durable
  /// runtime publishes the whole batch to its log thread in shard order.
  std::function<void()> after_slices;
};

/// A batch-oriented, subject-sharded front end over N AccessControlEngine
/// instances.
///
/// Lifecycle: construct (spawns the workers for shards 1..n-1), call
/// EvaluateBatch any number of times from one control thread (which
/// also evaluates shard 0's slice), destroy (joins workers). Database
/// mutations are only legal between EvaluateBatch calls.
class ShardedDecisionEngine {
 public:
  /// Borrows all stores; they must outlive the engine.
  ShardedDecisionEngine(const MultilevelLocationGraph* graph,
                        AuthorizationDatabase* auth_db,
                        const UserProfileDatabase* profiles,
                        ShardedEngineOptions options = {});
  ~ShardedDecisionEngine();

  ShardedDecisionEngine(const ShardedDecisionEngine&) = delete;
  ShardedDecisionEngine& operator=(const ShardedDecisionEngine&) = delete;

  /// Evaluates a batch of events. Events of the same subject are applied
  /// in batch order (their times must be nondecreasing, as the movement
  /// database requires); events of different subjects may be interleaved
  /// arbitrarily by the partition. Returns one Decision per event, in
  /// input order. The viewed storage must stay alive (and unmodified)
  /// for the duration of the call.
  std::vector<Decision> EvaluateBatch(Span<const AccessEvent> batch);

  /// Shard a subject maps to.
  uint32_t ShardOf(SubjectId s) const;

  /// The partition function itself, usable without an engine instance
  /// (recovery must route logged subjects identically across restarts —
  /// the mapping is stable for a fixed `num_shards`).
  static uint32_t ShardOfSubject(SubjectId s, uint32_t num_shards);

  /// Number of shards.
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  /// The movement view owned by `shard` (subjects hashing to that shard).
  const MovementDatabase& shard_movements(uint32_t shard) const;

  // --- Control-phase surface (no batch may be in flight) -------------------

  /// Installs worker callbacks (see ShardHooks). Replaces any previous
  /// hooks; pass {} to detach.
  void SetShardHooks(ShardHooks hooks);

  /// Seeds the shards from an existing movement history before the
  /// first batch: moves every event of `history` into its subject's
  /// shard view (per-subject order preserved), then resumes every open
  /// stay the shard views hold under the first active in-window
  /// authorization for (subject, location) — the choice CheckAccess
  /// makes — so overstay tracking survives. Recovery restores the shard
  /// views itself and passes an empty history.
  Status Seed(const MovementDatabase& history);

  /// Mutable access to one shard's movement view, for recovery seeding
  /// (restoring a snapshot segment before the first batch).
  MovementDatabase& mutable_shard_movements(uint32_t shard);

  /// Direct access to one shard's engine, for recovery (ResumeStay,
  /// replaying a log tail) and alert inspection between batches.
  AccessControlEngine& shard_engine(uint32_t shard);
  const AccessControlEngine& shard_engine(uint32_t shard) const;

  /// Patrol tick fanned out to every shard's engine on the control
  /// thread; overstay alerts land in the per-shard buffers.
  void Tick(Chronon t);

  /// Merged alerts from every shard so far, ordered by (time, subject,
  /// location, type) for determinism, clearing the per-shard buffers.
  std::vector<Alert> DrainAlerts();

  /// Aggregate counters across shards.
  size_t requests_processed() const;
  size_t requests_granted() const;
  /// Batches evaluated so far.
  size_t batches_evaluated() const { return batches_evaluated_; }

 private:
  /// One shard: private movement view + engine, driven by its worker
  /// (shard 0: by the caller of EvaluateBatch).
  struct Shard {
    explicit Shard(uint32_t index, const MultilevelLocationGraph* graph,
                   AuthorizationDatabase* auth_db,
                   const UserProfileDatabase* profiles,
                   const EngineOptions& options);

    uint32_t index = 0;
    MovementDatabase movements;
    AccessControlEngine engine;

    std::mutex mu;
    std::condition_variable cv;
    /// Indices into the current batch owned by this shard, batch order.
    std::vector<size_t> todo;
    bool has_work = false;
    bool stop = false;
    std::thread worker;  // Not started for shard 0.
  };

  /// Evaluates shard->todo (write-ahead hook, then decision, per event)
  /// and clears it.
  void RunSlice(Shard* shard);
  void WorkerLoop(Shard* shard);

  /// Borrowed; Seed reads them.
  const AuthorizationDatabase* auth_db_;
  const UserProfileDatabase* profiles_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Worker callbacks; written only between batches (SetShardHooks),
  /// read by workers while a batch is in flight.
  ShardHooks hooks_;

  /// Batch currently being evaluated; set by EvaluateBatch, read by
  /// workers while the completion latch is open.
  Span<const AccessEvent> current_batch_;
  /// Output slots; workers write disjoint indices.
  std::vector<Decision> decisions_;

  /// Completion latch for the in-flight batch.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  size_t pending_shards_ = 0;

  size_t batches_evaluated_ = 0;
};

}  // namespace ltam

#endif  // LTAM_ENGINE_SHARDED_ENGINE_H_
