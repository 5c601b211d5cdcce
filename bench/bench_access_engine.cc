// Copyright 2026 The LTAM Authors.
//
// Enforcement-path benchmarks (Figure 3): Definition-7 decision latency
// as the authorization database grows, full engine request throughput
// including adjacency checks, ledger, and movement recording, and the
// AccessRuntime facade against the raw engines it wraps.
//
// The harness drives the production surface (AccessRuntime) wherever a
// workload is measured end to end; the raw-engine benchmarks that remain
// (BM_BatchDecision*) are kept deliberately as the direct-engine
// baselines the facade numbers are compared against —
// BM_BatchDecisionSequential runs the per-event oracle engine.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "engine/access_control_engine.h"
#include "engine/sharded_engine.h"
#include "query/movement_view.h"
#include "runtime/access_runtime.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/durable_sharded_system.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace ltam;  // NOLINT: harness brevity.

struct World {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
  std::vector<AccessRequest> requests;
};

World MakeWorld(uint32_t side, uint32_t subjects, uint32_t auths_per_loc) {
  World w;
  w.graph = MakeGridGraph(side, side).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, subjects);
  Rng rng(99);
  AuthWorkloadOptions opt;
  opt.auths_per_location = auths_per_loc;
  opt.horizon = 500;
  opt.min_len = 50;
  opt.max_len = 200;
  GenerateAuthorizations(w.graph, w.subjects, opt, &rng, &w.auth_db);
  w.requests = GenerateRequests(w.graph, w.subjects, 4096, 500, &rng);
  return w;
}

/// Pure Definition-7 checks against a database of state.range(0) total
/// authorizations (16 subjects x grid x per-loc factor).
void BM_CheckAccess(benchmark::State& state) {
  World w = MakeWorld(16, 16, static_cast<uint32_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const AccessRequest& req = w.requests[i++ % w.requests.size()];
    benchmark::DoNotOptimize(
        w.auth_db.CheckAccess(req.time, req.subject, req.location));
  }
  state.counters["auths"] = static_cast<double>(w.auth_db.active_size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckAccess)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Full engine path with adjacency off (card-reader-comparable).
void BM_EngineRequestNoAdjacency(benchmark::State& state) {
  World w = MakeWorld(16, 16, 2);
  MovementDatabase movements;
  EngineOptions options;
  options.enforce_adjacency = false;
  options.alert_on_denial = false;
  AccessControlEngine engine(&w.graph, &w.auth_db, &movements, &w.profiles,
                             options);
  Chronon t = 0;
  size_t i = 0;
  for (auto _ : state) {
    // Strictly increasing time keeps the movement database happy.
    const AccessRequest& req = w.requests[i++ % w.requests.size()];
    benchmark::DoNotOptimize(engine.RequestEntry(++t, req.subject,
                                                 req.location));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRequestNoAdjacency);

/// Full engine path with adjacency enforcement: subjects walk neighbor to
/// neighbor, the common production pattern.
void BM_EngineRequestWalk(benchmark::State& state) {
  World w = MakeWorld(16, 4, 1);
  // Blanket authorizations so the walk is never policy-blocked.
  for (SubjectId s : w.subjects) {
    for (LocationId l : w.graph.Primitives()) {
      w.auth_db.Add(LocationTemporalAuthorization::Make(
                        TimeInterval(0, kChrononMax),
                        TimeInterval(0, kChrononMax),
                        LocationAuthorization{s, l}, kUnlimitedEntries)
                        .ValueOrDie());
    }
  }
  MovementDatabase movements;
  AccessControlEngine engine(&w.graph, &w.auth_db, &movements, &w.profiles);
  Rng rng(5);
  Chronon t = 0;
  // Enter everyone through the door first.
  std::vector<LocationId> doors = w.graph.EntryPrimitives(w.graph.root());
  for (SubjectId s : w.subjects) engine.RequestEntry(++t, s, doors[0]);
  for (auto _ : state) {
    SubjectId s = w.subjects[rng.Uniform(w.subjects.size())];
    LocationId cur = movements.CurrentLocation(s);
    const std::vector<LocationId>& adj = w.graph.EffectiveNeighbors(cur);
    LocationId next = adj[rng.Uniform(adj.size())];
    benchmark::DoNotOptimize(engine.RequestEntry(++t, s, next));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRequestWalk);

/// Ledger update cost.
void BM_CheckAndRecord(benchmark::State& state) {
  World w = MakeWorld(8, 8, 1);
  // Primitives() builds a fresh vector per call: resolve the location
  // once, outside the timed loop.
  const LocationId location = w.graph.Primitives()[0];
  // Unlimited-entry blanket auth for one subject/location pair.
  AuthId id = w.auth_db.Add(
      LocationTemporalAuthorization::Make(
          TimeInterval(0, kChrononMax), TimeInterval(0, kChrononMax),
          LocationAuthorization{w.subjects[0], location}, kUnlimitedEntries)
          .ValueOrDie());
  (void)id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.auth_db.CheckAndRecordAccess(100, w.subjects[0], location));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckAndRecord);

// --- Batched multi-shard pipeline (campus workload) ------------------------
//
// The same pre-generated event batches are replayed through (a) one
// sequential AccessControlEngine event-by-event and (b) the
// ShardedDecisionEngine at 1..N shards. Decisions are identical by the
// equivalence property (tests/sharded_engine_test.cc); these benchmarks
// measure the throughput gap. On multicore hardware the sharded path
// should clear 2x the sequential items/sec at 4+ shards; on a single
// core it degenerates to the cv-handoff overhead.

struct BatchWorld {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
  std::vector<std::vector<AccessEvent>> batches;
  size_t total_events = 0;
};

BatchWorld MakeBatchWorld(size_t batch_size = 2048,
                          size_t total_events = 16384,
                          double exit_fraction = 0.1) {
  BatchWorld w;
  // Campus of 16 buildings x 12 rooms, 256 subjects, dense coverage —
  // the "whole campus under tracking" shape of Section 1.
  w.graph = MakeCampusGraph(16, 12).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, 256);
  Rng rng(2026);
  AuthWorkloadOptions auth_opt;
  auth_opt.auths_per_location = 2;
  auth_opt.coverage = 0.7;
  auth_opt.horizon = 4000;
  auth_opt.min_len = 100;
  auth_opt.max_len = 800;
  auth_opt.max_entries = 0;  // Unlimited: keeps replays ledger-independent.
  GenerateAuthorizations(w.graph, w.subjects, auth_opt, &rng, &w.auth_db);
  BatchWorkloadOptions batch_opt;
  batch_opt.batch_size = batch_size;
  batch_opt.exit_fraction = exit_fraction;
  batch_opt.observe_fraction = 0.1;
  batch_opt.max_step = 3;
  w.batches = GenerateEventBatches(w.graph, w.subjects, total_events,
                                   batch_opt, &rng);
  for (const auto& b : w.batches) w.total_events += b.size();
  return w;
}

EngineOptions QuietEngineOptions() {
  EngineOptions opt;
  opt.alert_on_denial = false;  // Keep alert buffers flat across replays.
  return opt;
}

/// Sequential baseline: the full batch stream through one engine.
void BM_BatchDecisionSequential(benchmark::State& state) {
  BatchWorld w = MakeBatchWorld();
  for (auto _ : state) {
    state.PauseTiming();
    MovementDatabase movements;
    AccessControlEngine engine(&w.graph, &w.auth_db, &movements, &w.profiles,
                               QuietEngineOptions());
    state.ResumeTiming();
    for (const auto& batch : w.batches) {
      for (const AccessEvent& e : batch) {
        benchmark::DoNotOptimize(ApplyAccessEvent(&engine, e));
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
}
BENCHMARK(BM_BatchDecisionSequential)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Sharded pipeline at state.range(0) shards over the same stream.
void BM_BatchDecisionSharded(benchmark::State& state) {
  BatchWorld w = MakeBatchWorld();
  ShardedEngineOptions opt;
  opt.num_shards = static_cast<uint32_t>(state.range(0));
  opt.engine = QuietEngineOptions();
  for (auto _ : state) {
    // Engine construction (thread spawn) and destruction (stop + join)
    // both stay outside the timed region; only EvaluateBatch is measured.
    state.PauseTiming();
    auto engine = std::make_unique<ShardedDecisionEngine>(
        &w.graph, &w.auth_db, &w.profiles, opt);
    state.ResumeTiming();
    for (const auto& batch : w.batches) {
      benchmark::DoNotOptimize(engine->EvaluateBatch(batch));
    }
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  state.counters["shards"] = static_cast<double>(opt.num_shards);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
}
// Real time, not CPU time: the work happens on the shard workers, and
// the speedup claim is wall-clock throughput vs the sequential path.
BENCHMARK(BM_BatchDecisionSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- AccessRuntime facade (in-memory) ---------------------------------------
//
// The same stream as BM_BatchDecision*, but through the AccessRuntime
// facade. The gap between BM_BatchDecision{Sequential,Sharded} (direct
// engine) and BM_FacadeBatchSharded (/1 is the one-shard runtime) is the
// facade overhead: one virtual dispatch + alert drain per batch.

SystemState InitStateOf(const BatchWorld& w) {
  SystemState init;
  init.graph = w.graph;
  init.profiles = w.profiles;
  init.auth_db = w.auth_db;
  return init;
}

void RunFacadeBatches(benchmark::State& state, RuntimeOptions options,
                      const BatchWorld& w) {
  for (auto _ : state) {
    state.PauseTiming();
    auto rt = AccessRuntime::Open(InitStateOf(w), options).ValueOrDie();
    state.ResumeTiming();
    for (const auto& batch : w.batches) {
      benchmark::DoNotOptimize(rt->ApplyBatch(batch));
    }
    state.PauseTiming();
    rt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
}

void BM_FacadeBatchSharded(benchmark::State& state) {
  BatchWorld w = MakeBatchWorld();
  RuntimeOptions options;
  options.num_shards = static_cast<uint32_t>(state.range(0));
  options.engine = QuietEngineOptions();
  state.counters["shards"] = static_cast<double>(options.num_shards);
  RunFacadeBatches(state, options, w);
}
BENCHMARK(BM_FacadeBatchSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Durable batch pipeline (WAL + group commit), via the facade ------------
//
// The same stream as the in-memory benchmarks, but crash-safe: every
// event is appended to its shard's write-ahead log before it is applied,
// and the runtime's one log thread writes and fsyncs the logs (a shard's
// file once per 4 batches or 1 MiB, and whenever its queue drains).
// Every iteration ends with WaitDurable(), so the measured work includes
// full durability. The gap between BM_FacadeBatch* and BM_DurableBatch*
// is the price of durability.

std::string MakeBenchDir() {
  std::string tmpl = std::filesystem::temp_directory_path().string() +
                     "/ltam_bench_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  LTAM_CHECK(made != nullptr) << "mkdtemp failed";
  return tmpl;
}

void RunDurableBatches(benchmark::State& state, RuntimeOptions options,
                       const BatchWorld& w) {
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = MakeBenchDir();
    options.durable_dir = dir;
    auto rt = AccessRuntime::Open(InitStateOf(w), options).ValueOrDie();
    state.ResumeTiming();
    for (const auto& batch : w.batches) {
      benchmark::DoNotOptimize(rt->ApplyBatch(batch));
    }
    // The in-flight fsyncs land inside the timed region: a row that
    // stopped the clock before them would time a cheaper guarantee.
    Status durable = rt->WaitDurable();
    benchmark::DoNotOptimize(durable);
    state.PauseTiming();
    rt.reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
}

// Args: {shards, batch_size}. The 2048-event batches are the
// compute-bound shape (a handful of fsyncs per run); the 128-event
// batches are the fsync-bound shape (128 batches), where amortizing
// fsyncs across batches is what the benchmark measures.

void BM_DurableBatchSharded(benchmark::State& state) {
  BatchWorld w = MakeBatchWorld(static_cast<size_t>(state.range(1)));
  RuntimeOptions options;
  options.num_shards = static_cast<uint32_t>(state.range(0));
  options.engine = QuietEngineOptions();
  state.counters["shards"] = static_cast<double>(options.num_shards);
  RunDurableBatches(state, options, w);
}
BENCHMARK(BM_DurableBatchSharded)
    ->Args({1, 2048})
    ->Args({4, 2048})
    ->Args({1, 128})
    ->Args({4, 128})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Checkpoint latency: full rewrite vs incremental + tiered ---------------
//
// Arg: history length (events applied before the measured checkpoints).
// Each timed iteration is exactly one Checkpoint() after one small
// (untimed) dirtying batch, so the work a checkpoint SHOULD do is
// constant across history lengths. The full variant dirties every
// shard each round, so every snapshot is rewritten and checkpoint
// latency grows linearly with history. The incremental variant dirties
// a single shard with the cold tier enabled (max_hot_events bounds the
// hot snapshot; sealed segments are immutable and never rewritten), so
// the checkpoint rewrites one bounded snapshot plus the manifest and
// its latency plateaus — the O(events since last checkpoint) claim.

void RunCheckpointBench(benchmark::State& state, bool incremental) {
  const size_t history = static_cast<size_t>(state.range(0));
  // Exit-heavy stream: sealing moves only COMPLETED stays cold, so the
  // tiered variant needs most stays closed to keep its hot tier small.
  BatchWorld w = MakeBatchWorld(2048, history, /*exit_fraction=*/0.5);
  RuntimeOptions options;
  options.num_shards = 4;
  options.engine = QuietEngineOptions();
  if (incremental) {
    options.retention.max_hot_events = 2048;
  }
  std::string dir = MakeBenchDir();
  options.durable_dir = dir;
  auto rt = AccessRuntime::Open(InitStateOf(w), options).ValueOrDie();
  for (const auto& batch : w.batches) {
    benchmark::DoNotOptimize(rt->ApplyBatch(batch));
  }
  // Baseline epoch: the measured rounds start from a committed
  // checkpoint (and, tiered, from a sealed cold tier), so each timed
  // Checkpoint() pays only for what the dirtying batch touched.
  LTAM_CHECK(rt->Checkpoint().ok());

  // Dirtying stream past every pre-applied per-subject clock. The full
  // variant touches enough subjects to hit all 4 shards; the
  // incremental variant touches exactly one.
  const size_t touched = incremental ? 1 : 16;
  Chronon t = static_cast<Chronon>(history) * 8 + 1'000'000;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<AccessEvent> dirty;
    for (size_t i = 0; i < touched; ++i) {
      dirty.push_back(AccessEvent::Observe(t, w.subjects[i],
                                           w.graph.Primitives()[0]));
    }
    ++t;
    benchmark::DoNotOptimize(
        rt->ApplyBatch(Span<const AccessEvent>(dirty.data(), dirty.size())));
    state.ResumeTiming();
    Status st = rt->Checkpoint();
    benchmark::DoNotOptimize(st);
    state.PauseTiming();
    LTAM_CHECK(st.ok()) << st.ToString();
    state.ResumeTiming();
  }
  state.counters["history_events"] = static_cast<double>(w.total_events);
  rt.reset();
  std::filesystem::remove_all(dir);
}

void BM_CheckpointFull(benchmark::State& state) {
  RunCheckpointBench(state, /*incremental=*/false);
}
BENCHMARK(BM_CheckpointFull)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CheckpointIncremental(benchmark::State& state) {
  RunCheckpointBench(state, /*incremental=*/true);
}
BENCHMARK(BM_CheckpointIncremental)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Cross-shard queries: MovementView fan-out ------------------------------
//
// The MovementView fans each query out over the per-shard views (no
// merged copy of the history): subject-keyed queries touch the owning
// shard, location and contact queries merge across shards.

size_t RunQueryMix(const MovementView& view, const BatchWorld& w) {
  size_t sink = 0;
  for (size_t i = 0; i < w.subjects.size(); i += 7) {
    SubjectId s = w.subjects[i];
    sink += view.CurrentLocation(s);
    sink += view.LocationAt(s, 2000);
    sink += view.StaysOf(s).size();
  }
  const std::vector<LocationId> prims = w.graph.Primitives();
  for (size_t i = 0; i < prims.size(); i += 17) {
    sink += view.OccupantsAt(prims[i], 2000).size();
    sink += view.CurrentOccupants(prims[i]).size();
  }
  sink += view.ContactsOf(w.subjects[0], TimeInterval(0, 4000), 1).size();
  return sink;
}

struct QueryBenchWorld {
  BatchWorld batch;
  std::string dir;
  std::unique_ptr<DurableShardedSystem> sys;

  static std::unique_ptr<QueryBenchWorld> Make(uint32_t shards) {
    auto q = std::make_unique<QueryBenchWorld>();
    q->batch = MakeBatchWorld();
    q->dir = MakeBenchDir();
    DurableShardedOptions opt;
    opt.num_shards = shards;
    opt.engine = QuietEngineOptions();
    SystemState init;
    init.graph = q->batch.graph;
    init.profiles = q->batch.profiles;
    init.auth_db = q->batch.auth_db;
    q->sys = DurableShardedSystem::Open(q->dir, std::move(init), opt)
                 .ValueOrDie();
    for (const auto& b : q->batch.batches) {
      q->sys->engine().EvaluateBatch(b);
      LTAM_CHECK(q->sys->TakeBatchError().ok());
    }
    return q;
  }

  ~QueryBenchWorld() {
    sys.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

/// The query mix fanned out over the live shard views.
void BM_MovementViewFanout(benchmark::State& state) {
  std::unique_ptr<QueryBenchWorld> q =
      QueryBenchWorld::Make(static_cast<uint32_t>(state.range(0)));
  std::vector<const MovementDatabase*> shards;
  const uint32_t n = q->sys->num_shards();
  for (uint32_t k = 0; k < n; ++k) {
    shards.push_back(&q->sys->shard_movements(k));
  }
  ShardedMovementView view(std::move(shards), [n](SubjectId s) {
    return ShardedDecisionEngine::ShardOfSubject(s, n);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQueryMix(view, q->batch));
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MovementViewFanout)->Arg(4)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
