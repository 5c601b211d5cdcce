// Copyright 2026 The LTAM Authors.

#include "runtime/access_runtime.h"

#include <algorithm>
#include <utility>

#include "core/rules/rule_engine.h"
#include "replication/epoch.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"

namespace ltam {

namespace {

std::unique_ptr<MovementView> MakeShardedView(
    const ShardedDecisionEngine& engine) {
  std::vector<const MovementDatabase*> shards;
  const uint32_t n = engine.num_shards();
  shards.reserve(n);
  for (uint32_t k = 0; k < n; ++k) shards.push_back(&engine.shard_movements(k));
  return std::make_unique<ShardedMovementView>(
      std::move(shards), [n](SubjectId s) {
        return ShardedDecisionEngine::ShardOfSubject(s, n);
      });
}

/// The sequential durable layout (`state.snap` + `events.wal`) was
/// removed. A directory holding it without a MANIFEST is refused, never
/// shadowed by a fresh cut that would ignore its committed state.
Status RefuseRemovedSequentialLayout(const std::string& dir) {
  if (FileExists(dir + "/" + ManifestFileName())) return Status::OK();
  for (const char* name : {"state.snap", "events.wal"}) {
    const std::string path = dir + "/" + name;
    if (FileExists(path)) {
      return Status::FailedPrecondition(
          "durable directory holds '" + path +
          "' from the sequential on-disk layout (state.snap/events.wal), "
          "which was removed; open it with a release that still reads "
          "that layout, or point durable_dir at an empty directory");
    }
  }
  return Status::OK();
}

Status ReplicationNeedsDurability() {
  return Status::FailedPrecondition(
      "replication requires a durable runtime (durable_dir set)");
}

}  // namespace

AccessRuntime::AccessRuntime(RuntimeOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    apply_histogram_ = options_.metrics->GetHistogram("runtime.apply_batch");
    checkpoint_histogram_ =
        options_.metrics->GetHistogram("runtime.checkpoint");
  }
}

AccessRuntime::~AccessRuntime() = default;

Result<std::unique_ptr<AccessRuntime>> AccessRuntime::Open(
    SystemState initial, RuntimeOptions options) {
  options.num_shards = std::max<uint32_t>(1, options.num_shards);
  if (options.metrics != nullptr && options.durability.metrics == nullptr) {
    options.durability.metrics = options.metrics;
  }
  const bool wants_retention = options.retention.max_hot_events > 0 ||
                               options.retention.horizon > 0;
  if (options.retention.horizon > 0 &&
      options.retention.max_hot_events == 0) {
    return Status::InvalidArgument(
        "retention horizon requires max_hot_events > 0 (nothing is ever "
        "sealed, so nothing could be dropped)");
  }
  std::unique_ptr<AccessRuntime> rt(new AccessRuntime(options));
  if (!options.durable_dir.has_value()) {
    if (wants_retention) {
      return Status::InvalidArgument(
          "retention (tiered cold storage) requires a durable runtime: set "
          "durable_dir");
    }
    rt->owned_state_ = std::make_unique<SystemState>(std::move(initial));
    SystemState& state = *rt->owned_state_;
    ShardedEngineOptions engine_options;
    engine_options.num_shards = options.num_shards;
    engine_options.engine = options.engine;
    rt->owned_engine_ = std::make_unique<ShardedDecisionEngine>(
        &state.graph, &state.auth_db, &state.profiles, engine_options);
    LTAM_RETURN_IF_ERROR(rt->owned_engine_->Seed(state.movements));
    // Movement state lives in the shard views from here on.
    state.movements = MovementDatabase();
    rt->state_ = &state;
    rt->engine_ = rt->owned_engine_.get();
  } else {
    const std::string& dir = *options.durable_dir;
    LTAM_RETURN_IF_ERROR(RefuseRemovedSequentialLayout(dir));
    DurableShardedOptions durable_options;
    durable_options.num_shards = options.num_shards;
    durable_options.engine = options.engine;
    durable_options.durability = options.durability;
    durable_options.retention = options.retention;
    LTAM_ASSIGN_OR_RETURN(
        rt->durable_,
        DurableShardedSystem::Open(dir, std::move(initial), durable_options));
    // The promotion counter survives restarts with the rest of the
    // directory; a fenced ex-primary must come back fenced.
    LTAM_ASSIGN_OR_RETURN(rt->replication_epoch_, LoadReplicationEpoch(dir));
    rt->state_ = &rt->durable_->mutable_base();
    rt->engine_ = &rt->durable_->engine();
  }
  rt->view_ = MakeShardedView(*rt->engine_);
  rt->query_ = std::make_unique<QueryEngine>(
      &rt->state_->graph, &rt->state_->auth_db, rt->view_.get(),
      &rt->state_->profiles);
  return rt;
}

Status AccessRuntime::ReplicaRefusal(const char* op) const {
  std::string message =
      std::string(op) +
      " refused: this runtime is a read-only replica — redirect writes "
      "to the primary";
  // The token is load-bearing wire surface (protocol v6): clients grep
  // for `[primary=` and re-dial the named endpoint, so the format must
  // stay `[primary=host:port]` verbatim.
  if (!primary_redirect_.empty()) {
    message += " [primary=" + primary_redirect_ + "]";
  }
  return Status::FailedPrecondition(message);
}

Result<Decision> AccessRuntime::Apply(const AccessEvent& event) {
  if (in_mutate_) {
    return Status::FailedPrecondition(
        "Apply called inside Mutate: events may only be applied between "
        "mutation windows");
  }
  if (replica_) return ReplicaRefusal("Apply");
  std::vector<Decision> decisions =
      engine_->EvaluateBatch(Span<const AccessEvent>(&event, 1));
  const Status durability = TakeBatchError();
  ++events_applied_;
  if (!durability.ok()) {
    return durability.WithContext(
        "event applied but the write-ahead log failed: durability in "
        "doubt, do not resubmit");
  }
  return decisions[0];
}

Result<BatchResult> AccessRuntime::ApplyBatch(Span<const AccessEvent> batch) {
  if (in_mutate_) {
    ++batches_rejected_;
    return Status::FailedPrecondition(
        "ApplyBatch called inside Mutate: events may only be applied "
        "between mutation windows");
  }
  if (replica_) {
    ++batches_rejected_;
    return ReplicaRefusal("ApplyBatch");
  }
  BatchResult out;
  const uint64_t t0 = apply_histogram_ != nullptr ? MonotonicNowNs() : 0;
  out.decisions = engine_->EvaluateBatch(batch);
  out.durability = TakeBatchError();
  if (apply_histogram_ != nullptr) {
    apply_histogram_->Record(MonotonicNowNs() - t0);
  }
  out.alerts = engine_->DrainAlerts();
  ++batches_applied_;
  events_applied_ += batch.size();
  out.watermark = Watermark();
  return out;
}

Status AccessRuntime::ApplyFix(const PositionFix& fix) {
  if (in_mutate_) {
    return Status::FailedPrecondition(
        "ApplyFix called inside Mutate: events may only be applied between "
        "mutation windows");
  }
  if (replica_) return ReplicaRefusal("ApplyFix");
  if (!resolver_.has_value()) {
    Result<LocationResolver> built = LocationResolver::Build(graph());
    if (!built.ok()) {
      return built.status().WithContext("building the position resolver");
    }
    resolver_.emplace(std::move(built).ValueOrDie());
  }
  std::optional<LocationId> located = resolver_->Resolve(fix.position);
  AccessEvent event;
  if (located.has_value()) {
    event = AccessEvent::Observe(fix.time, fix.subject, *located);
  } else {
    // Outside every boundary: if the subject is recorded inside, they
    // left without an exit request — close the stay; otherwise ignore.
    if (movements().CurrentLocation(fix.subject) == kInvalidLocation) {
      return Status::OK();
    }
    event = AccessEvent::Exit(fix.time, fix.subject);
  }
  Result<Decision> decision = Apply(event);
  if (!decision.ok()) return decision.status();
  if (!decision->granted &&
      (decision->reason == DenyReason::kObservationRejected ||
       decision->reason == DenyReason::kExitRejected)) {
    return Status::FailedPrecondition(
        std::string("position fix refused: ") +
        DenyReasonToString(decision->reason));
  }
  return Status::OK();
}

Status AccessRuntime::Tick(Chronon t) {
  if (in_mutate_) {
    return Status::FailedPrecondition(
        "Tick called inside Mutate: events may only be applied between "
        "mutation windows");
  }
  // Patrol ticks are WAL-logged, so a replica receives the primary's
  // over the stream; a locally injected one would fork the history.
  if (replica_) return ReplicaRefusal("Tick");
  if (durable_ != nullptr) return durable_->Tick(t);
  engine_->Tick(t);
  return Status::OK();
}

std::vector<Alert> AccessRuntime::DrainAlerts() {
  return engine_->DrainAlerts();
}

Status AccessRuntime::Mutate(
    const std::function<Status(const MutableStores&)>& fn) {
  if (in_mutate_) {
    return Status::FailedPrecondition("reentrant Mutate");
  }
  if (replica_) return ReplicaRefusal("Mutate");
  // RAII so a throwing callback cannot leave the runtime latched shut
  // (fn is arbitrary user code; exceptions must not wedge enforcement).
  struct WindowGuard {
    AccessRuntime* rt;
    ~WindowGuard() {
      rt->in_mutate_ = false;
      // Re-warm the graph's flattened adjacency cache before the shard
      // workers read it again.
      rt->state_->graph.WarmEffectiveAdjacency();
      // The layout may have changed; rebuild the fix resolver on demand.
      rt->resolver_.reset();
    }
  };
  Status status;
  {
    in_mutate_ = true;
    WindowGuard guard{this};
    status = fn(MutableStores{state_->graph, state_->profiles,
                              state_->auth_db, state_->rules});
  }
  if (durable_ != nullptr) {
    // Mutations are not write-ahead logged and are applied in place, so
    // even a failed callback may have mutated the stores — checkpoint
    // unconditionally to keep recovery equivalent to the live state.
    Status checkpointed = durable_->Checkpoint();
    if (!checkpointed.ok()) {
      return status.ok()
                 ? checkpointed.WithContext("checkpointing after a mutation")
                 : status.WithContext("additionally, the post-mutation "
                                      "checkpoint failed: " +
                                      checkpointed.ToString());
    }
  }
  return status;
}

Status AccessRuntime::Checkpoint() {
  if (in_mutate_) {
    return Status::FailedPrecondition("Checkpoint called inside Mutate");
  }
  const uint64_t t0 = checkpoint_histogram_ != nullptr ? MonotonicNowNs() : 0;
  Status status = durable_ != nullptr ? durable_->Checkpoint() : Status::OK();
  if (checkpoint_histogram_ != nullptr) {
    checkpoint_histogram_->Record(MonotonicNowNs() - t0);
  }
  return status;
}

Status AccessRuntime::TakeBatchError() {
  return durable_ != nullptr ? durable_->TakeBatchError() : Status::OK();
}

Status AccessRuntime::WaitDurable() {
  return durable_ != nullptr ? durable_->WaitDurable() : Status::OK();
}

AccessRuntime::RecoveryReport AccessRuntime::recovery() const {
  return durable_ != nullptr ? durable_->recovery() : RecoveryReport{};
}

DurabilityWatermark AccessRuntime::Watermark() const {
  if (durable_ != nullptr) return durable_->Watermark();
  // In memory: every applied event is as durable as it will ever be.
  const uint64_t applied = static_cast<uint64_t>(events_applied_);
  return DurabilityWatermark{applied, applied};
}

RuntimeStats AccessRuntime::Stats() const {
  RuntimeStats stats;
  stats.num_shards = engine_->num_shards();
  stats.requested_shards = options_.num_shards;
  // A recovered durable directory's pinned shard count wins.
  stats.shard_count_overridden = stats.num_shards != stats.requested_shards;
  stats.requests_processed = engine_->requests_processed();
  stats.requests_granted = engine_->requests_granted();
  stats.batches_applied = batches_applied_;
  stats.events_applied = events_applied_;
  stats.batches_rejected = batches_rejected_;
  for (uint32_t k = 0; k < stats.num_shards; ++k) {
    stats.pending_alerts += engine_->shard_engine(k).alerts().size();
  }
  const DurabilityWatermark mark = Watermark();
  stats.applied_offset = mark.applied;
  stats.durable_offset = mark.durable;
  stats.replica = replica_;
  stats.replication_epoch = replication_epoch_;
  if (durable_ != nullptr) {
    stats.durable = true;
    stats.epoch = durable_->epoch();
    stats.wal_events = durable_->wal_events();
    stats.wal_append_failures = durable_->wal_append_failures();
    stats.wal_sync_failures = durable_->wal_sync_failures();
    stats.cold_segments = durable_->cold_segment_count();
    stats.cold_bytes = durable_->cold_bytes();
    stats.dropped_events = durable_->dropped_events();
    stats.compaction_runs = durable_->compaction_runs();
    stats.checkpoint_dirty_segments = durable_->checkpoint_dirty_segments();
  }
  return stats;
}

Status AccessRuntime::DemoteToReplica() {
  if (replica_) return Status::OK();
  if (durable_ == nullptr) {
    return Status::FailedPrecondition(
        "DemoteToReplica requires a durable runtime (durable_dir set)");
  }
  replica_ = true;
  return Status::OK();
}

Result<uint64_t> AccessRuntime::Promote() {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition(
        "Promote requires a durable runtime (no directory to persist the "
        "epoch into)");
  }
  const uint64_t next = replication_epoch_ + 1;
  // Persist BEFORE accepting a single write: the fencing gate relies on
  // the on-disk epoch being >= the epoch of anything this server ever
  // ships or applies.
  LTAM_RETURN_IF_ERROR(StoreReplicationEpoch(*options_.durable_dir, next));
  replication_epoch_ = next;
  replica_ = false;
  return next;
}

Status AccessRuntime::AdoptReplicationEpoch(uint64_t epoch) {
  if (epoch == replication_epoch_) return Status::OK();
  LTAM_RETURN_IF_ERROR(CheckStreamEpoch(replication_epoch_, epoch));
  if (durable_ == nullptr) {
    return Status::FailedPrecondition(
        "cannot persist a replication epoch without a durable directory");
  }
  LTAM_RETURN_IF_ERROR(StoreReplicationEpoch(*options_.durable_dir, epoch));
  replication_epoch_ = epoch;
  return Status::OK();
}

Result<uint64_t> AccessRuntime::ReplicationPosition() const {
  if (durable_ == nullptr) return ReplicationNeedsDurability();
  return durable_->Watermark().durable;
}

Result<AccessRuntime::ReplicationSlice> AccessRuntime::ReadReplicationSlice(
    uint64_t from, size_t max_records) {
  if (durable_ == nullptr) return ReplicationNeedsDurability();
  return durable_->ReadLogRecords(from, max_records);
}

Result<AccessRuntime::ReplicationApplyResult> AccessRuntime::ApplyReplicated(
    uint64_t start, const std::vector<std::string>& records) {
  if (!replica_) {
    return Status::FailedPrecondition(
        "ApplyReplicated on a primary: only replicas apply shipped records");
  }
  if (in_mutate_) {
    return Status::FailedPrecondition("ApplyReplicated called inside Mutate");
  }
  // Only a durable runtime can be demoted, so a replica holds durable_.
  LTAM_ASSIGN_OR_RETURN(
      ReplicationApplyResult out,
      durable_->ApplyReplicatedRecords(start, records));
  ++batches_applied_;
  events_applied_ += out.decisions.size();
  return out;
}

std::string RuntimeStatsToString(const RuntimeStats& stats) {
  std::string out;
  auto line = [&out](const char* name, const std::string& value) {
    out += name;
    out += ": ";
    out += value;
    out += '\n';
  };
  line("shards", std::to_string(stats.num_shards) + " (requested " +
                     std::to_string(stats.requested_shards) +
                     (stats.shard_count_overridden ? ", overridden)" : ")"));
  line("durable", stats.durable ? "yes" : "no");
  line("role", stats.replica ? "replica (read-only)" : "primary");
  line("replication-epoch", std::to_string(stats.replication_epoch));
  if (stats.durable) {
    line("epoch", std::to_string(stats.epoch));
    line("wal-events", std::to_string(stats.wal_events));
    line("wal-append-failures", std::to_string(stats.wal_append_failures));
    line("wal-sync-failures", std::to_string(stats.wal_sync_failures));
    line("cold-segments", std::to_string(stats.cold_segments));
    line("cold-bytes", std::to_string(stats.cold_bytes));
    line("dropped-events", std::to_string(stats.dropped_events));
    line("compaction-runs", std::to_string(stats.compaction_runs));
    line("checkpoint-dirty-segments",
         std::to_string(stats.checkpoint_dirty_segments));
  }
  line("durability-watermark", std::to_string(stats.durable_offset) + "/" +
                                   std::to_string(stats.applied_offset) +
                                   " durable/applied");
  line("requests-processed", std::to_string(stats.requests_processed));
  line("requests-granted", std::to_string(stats.requests_granted));
  line("batches-applied", std::to_string(stats.batches_applied));
  line("events-applied", std::to_string(stats.events_applied));
  line("batches-rejected", std::to_string(stats.batches_rejected));
  line("pending-alerts", std::to_string(stats.pending_alerts));
  return out;
}

namespace {

Status DeriveRules(const MutableStores& stores, size_t* derived) {
  RuleEngine rules(&stores.auth_db, &stores.profiles, &stores.graph);
  for (AuthorizationRule& rule : stores.rules) {
    LTAM_ASSIGN_OR_RETURN(RuleId id, rules.AddRule(rule));
    (void)id;
  }
  LTAM_ASSIGN_OR_RETURN(DerivationReport report, rules.DeriveAll());
  if (derived != nullptr) *derived = report.derived;
  return Status::OK();
}

}  // namespace

Status DeriveScriptedRules(SystemState* state, size_t* derived) {
  return DeriveRules(MutableStores{state->graph, state->profiles,
                                   state->auth_db, state->rules},
                     derived);
}

Status RegisterAndDeriveScriptedRules(AccessRuntime* runtime,
                                      size_t* derived) {
  if (runtime->rules().empty()) {
    if (derived != nullptr) *derived = 0;
    return Status::OK();
  }
  return runtime->Mutate([derived](const MutableStores& stores) {
    return DeriveRules(stores, derived);
  });
}

}  // namespace ltam
