// Copyright 2026 The LTAM Authors.

#include "engine/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/thread_name.h"

namespace ltam {

namespace {

/// Batches with fewer events than this run every slice on the calling
/// thread; larger ones hand shards 1..n-1 to their workers. Set at the
/// crossover of BM_BatchDecisionSharded (bench/bench_access_engine.cc):
/// with every batch fanned out, on a 4-core host, 4 shards first beat
/// one at 512-event batches (2.45 vs 3.12 ms per 16,384-event stream,
/// medians of 5 runs) and 2 shards drew level there, while at 256 both
/// lost. Below it, a worker's wake and the done latch cost more wall
/// time than the slices they overlap.
constexpr size_t kMinFanOutEvents = 512;

}  // namespace

Decision ApplyAccessEvent(AccessControlEngine* engine, const AccessEvent& e) {
  switch (e.kind) {
    case AccessEventKind::kRequestEntry:
      return engine->RequestEntry(e.time, e.subject, e.location);
    case AccessEventKind::kRequestExit: {
      Status st = engine->RequestExit(e.time, e.subject);
      return st.ok() ? Decision::Grant(kInvalidAuth)
                     : Decision::Deny(DenyReason::kExitRejected);
    }
    case AccessEventKind::kObserve: {
      Status st = engine->ObservePresence(e.time, e.subject, e.location);
      return st.ok() ? Decision::Grant(kInvalidAuth)
                     : Decision::Deny(DenyReason::kObservationRejected);
    }
  }
  return Decision::Deny(DenyReason::kNone);  // Unreachable.
}

ShardedDecisionEngine::Shard::Shard(uint32_t index,
                                    const MultilevelLocationGraph* graph,
                                    AuthorizationDatabase* auth_db,
                                    const UserProfileDatabase* profiles,
                                    const EngineOptions& options)
    : index(index),
      movements(),
      engine(graph, auth_db, &movements, profiles, options) {}

ShardedDecisionEngine::ShardedDecisionEngine(
    const MultilevelLocationGraph* graph, AuthorizationDatabase* auth_db,
    const UserProfileDatabase* profiles, ShardedEngineOptions options)
    : auth_db_(auth_db), profiles_(profiles) {
  LTAM_CHECK(graph != nullptr);
  // Build the graph's lazy flattened-adjacency cache before any worker
  // exists; adjacency checks on the shards then only read it.
  graph->WarmEffectiveAdjacency();
  uint32_t n = std::max<uint32_t>(1, options.num_shards);
  shards_.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(k, graph, auth_db, profiles, options.engine));
  }
  // Shard 0's slice runs on the calling thread (EvaluateBatch), so only
  // shards 1..n-1 get a worker: a one-shard engine pays no hand-off.
  for (size_t k = 1; k < shards_.size(); ++k) {
    Shard* shard = shards_[k].get();
    shard->worker = std::thread([this, shard] { WorkerLoop(shard); });
    NameThread(&shard->worker, "ltam-shard-" + std::to_string(k));
  }
}

ShardedDecisionEngine::~ShardedDecisionEngine() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

uint32_t ShardedDecisionEngine::ShardOfSubject(SubjectId s,
                                               uint32_t num_shards) {
  LTAM_CHECK(num_shards > 0) << "partition needs at least one shard";
  // Fibonacci-style mix so consecutive subject ids spread across shards.
  uint64_t x = static_cast<uint64_t>(s) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 32;
  return static_cast<uint32_t>(x % num_shards);
}

uint32_t ShardedDecisionEngine::ShardOf(SubjectId s) const {
  return ShardOfSubject(s, static_cast<uint32_t>(shards_.size()));
}

const MovementDatabase& ShardedDecisionEngine::shard_movements(
    uint32_t shard) const {
  LTAM_CHECK(shard < shards_.size()) << "shard index out of range";
  return shards_[shard]->movements;
}

MovementDatabase& ShardedDecisionEngine::mutable_shard_movements(
    uint32_t shard) {
  LTAM_CHECK(shard < shards_.size()) << "shard index out of range";
  return shards_[shard]->movements;
}

AccessControlEngine& ShardedDecisionEngine::shard_engine(uint32_t shard) {
  LTAM_CHECK(shard < shards_.size()) << "shard index out of range";
  return shards_[shard]->engine;
}

const AccessControlEngine& ShardedDecisionEngine::shard_engine(
    uint32_t shard) const {
  LTAM_CHECK(shard < shards_.size()) << "shard index out of range";
  return shards_[shard]->engine;
}

void ShardedDecisionEngine::SetShardHooks(ShardHooks hooks) {
  hooks_ = std::move(hooks);
}

void ShardedDecisionEngine::Tick(Chronon t) {
  // Control-phase: workers are parked between batches, so ticking the
  // shard engines here cannot race a batch slice (the per-shard lock is
  // belt-and-braces, mirroring DrainAlerts).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->engine.Tick(t);
  }
}

void ShardedDecisionEngine::RunSlice(Shard* shard) {
  // Per-subject batch order is preserved: todo holds this shard's event
  // indices ascending, and every event of a given subject maps here.
  for (size_t i : shard->todo) {
    const AccessEvent& event = current_batch_[i];
    if (hooks_.before_apply) hooks_.before_apply(shard->index, event);
    decisions_[i] = ApplyAccessEvent(&shard->engine, event);
  }
  shard->todo.clear();
}

void ShardedDecisionEngine::WorkerLoop(Shard* shard) {
  std::unique_lock<std::mutex> lock(shard->mu);
  while (true) {
    shard->cv.wait(lock, [shard] { return shard->has_work || shard->stop; });
    if (shard->stop && !shard->has_work) return;
    RunSlice(shard);
    shard->has_work = false;
    {
      std::lock_guard<std::mutex> done_lock(done_mu_);
      if (--pending_shards_ == 0) done_cv_.notify_one();
    }
  }
}

std::vector<Decision> ShardedDecisionEngine::EvaluateBatch(
    Span<const AccessEvent> batch) {
  ++batches_evaluated_;
  decisions_.assign(batch.size(), Decision());
  current_batch_ = batch;

  std::vector<std::vector<size_t>> parts(shards_.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    parts[ShardOf(batch[i].subject)].push_back(i);
  }
  if (batch.size() < kMinFanOutEvents) {
    // Too small to pay for a worker's wake and the done latch: every
    // slice runs here, in shard order. A worker's last slice finished
    // before its latch released the caller, so the caller's appends to
    // that shard's log slot follow the worker's.
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (parts[k].empty()) continue;
      shards_[k]->todo = std::move(parts[k]);
      RunSlice(shards_[k].get());
    }
  } else {
    FanOut(&parts);
  }
  if (hooks_.after_slices) hooks_.after_slices();
  current_batch_ = Span<const AccessEvent>();
  return std::move(decisions_);
}

void ShardedDecisionEngine::FanOut(std::vector<std::vector<size_t>>* parts) {
  size_t handed_off = 0;
  for (size_t k = 1; k < parts->size(); ++k) {
    if (!(*parts)[k].empty()) ++handed_off;
  }
  {
    std::lock_guard<std::mutex> done_lock(done_mu_);
    pending_shards_ = handed_off;
  }
  for (size_t k = 1; k < shards_.size(); ++k) {
    if ((*parts)[k].empty()) continue;
    {
      std::lock_guard<std::mutex> lock(shards_[k]->mu);
      shards_[k]->todo = std::move((*parts)[k]);
      shards_[k]->has_work = true;
    }
    shards_[k]->cv.notify_one();
  }
  if (!(*parts)[0].empty()) {
    shards_[0]->todo = std::move((*parts)[0]);
    RunSlice(shards_[0].get());
  }
  if (handed_off > 0) {
    std::unique_lock<std::mutex> done_lock(done_mu_);
    done_cv_.wait(done_lock, [this] { return pending_shards_ == 0; });
  }
}

std::vector<Alert> ShardedDecisionEngine::DrainAlerts() {
  std::vector<Alert> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const std::vector<Alert>& alerts = shard->engine.alerts();
    out.insert(out.end(), alerts.begin(), alerts.end());
    shard->engine.ClearAlerts();
  }
  SortAlerts(&out);
  return out;
}

size_t ShardedDecisionEngine::requests_processed() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.requests_processed();
  return total;
}

size_t ShardedDecisionEngine::requests_granted() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.requests_granted();
  return total;
}

Status ShardedDecisionEngine::Seed(const MovementDatabase& history) {
  for (const MovementEvent& ev : history.history()) {
    Status recorded = shards_[ShardOf(ev.subject)]->movements.RecordMovement(
        ev.time, ev.subject, ev.to);
    if (!recorded.ok()) {
      return recorded.WithContext("partitioning initial movement history");
    }
  }
  std::vector<std::vector<SubjectId>> owned(shards_.size());
  for (SubjectId s : profiles_->AllSubjects()) owned[ShardOf(s)].push_back(s);
  for (size_t k = 0; k < shards_.size(); ++k) {
    const MovementDatabase& movements = shards_[k]->movements;
    for (SubjectId s : owned[k]) {
      const LocationId cur = movements.CurrentLocation(s);
      if (cur == kInvalidLocation) continue;
      Result<Chronon> since = movements.CurrentStaySince(s);
      if (!since.ok()) continue;
      AuthId chosen = kInvalidAuth;
      for (AuthId id : auth_db_->ForSubjectLocation(s, cur)) {
        if (auth_db_->record(id).auth.entry_duration().Contains(*since)) {
          chosen = id;
          break;
        }
      }
      shards_[k]->engine.ResumeStay(s, cur, chosen, *since);
    }
  }
  return Status::OK();
}

}  // namespace ltam
