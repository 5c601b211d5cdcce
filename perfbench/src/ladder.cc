// Copyright 2026 The LTAM Authors.

#include "ladder.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "engine/access_control_engine.h"
#include "engine/sharded_engine.h"
#include "host.h"
#include "query/query_language.h"
#include "service/protocol.h"
#include "storage/log_pipeline.h"

namespace ltam::perfbench {

namespace {

/// In-memory rungs replay at most this many events, the durable rung at
/// most this many merged batches (each one an fsync per shard).
constexpr size_t kLadderEvents = 200'000;
constexpr size_t kDurableBatches = 400;
/// Statements timed per kind.
constexpr size_t kStatementsPerKind = 100;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Count(size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

struct Batches {
  std::vector<std::vector<AccessEvent>> merged;
  /// Frames replayed, in order; merged batch b holds frames
  /// [first_frame[b], first_frame[b + 1]).
  std::vector<const std::vector<AccessEvent>*> frames;
  std::vector<size_t> first_frame;
  size_t events = 0;
};

Batches MergeFrames(const LadderInput& in) {
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::llround(in.frames_per_batch)));
  Batches b;
  for (size_t f = 0; f < in.frames.size() && b.events < kLadderEvents; ++f) {
    if (b.frames.size() % k == 0) {
      b.first_frame.push_back(b.frames.size());
      b.merged.emplace_back();
    }
    const std::vector<AccessEvent>& frame = *in.frames[f];
    b.merged.back().insert(b.merged.back().end(), frame.begin(), frame.end());
    b.frames.push_back(&frame);
    b.events += frame.size();
  }
  b.first_frame.push_back(b.frames.size());
  return b;
}

}  // namespace

Result<std::vector<Metric>> RunLadder(const LadderInput& in) {
  const WorkloadSpec& spec = *in.spec;
  const LoadScenario& scenario = *in.scenario;
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    std::string base) {
    out.push_back({std::move(name), value, std::move(unit), std::move(base)});
  };
  const Batches b = MergeFrames(in);
  if (b.events == 0) return Status::FailedPrecondition("no frames to replay");
  const double events = static_cast<double>(b.events);
  const std::string event_base = Count(b.events, "events") + " in " +
                                 Count(b.merged.size(), "batches");

  // Runtime rung: the facade, in memory, at the workload's shard count.
  RuntimeOptions mem;
  mem.num_shards = spec.shards;
  mem.engine = scenario.engine;
  std::vector<double> mem_batch_s;
  std::vector<Decision> decisions;
  {
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                          AccessRuntime::Open(scenario.initial, mem));
    LTAM_RETURN_IF_ERROR(RegisterAndDeriveScriptedRules(rt.get()));
    for (const auto& batch : b.merged) {
      const Clock::time_point t0 = Clock::now();
      LTAM_ASSIGN_OR_RETURN(BatchResult r, rt->ApplyBatch(batch));
      mem_batch_s.push_back(SecondsSince(t0));
      decisions.insert(decisions.end(), r.decisions.begin(), r.decisions.end());
    }
  }
  double mem_s = 0;
  for (double s : mem_batch_s) mem_s += s;
  add("runtime.ns_per_event", mem_s * 1e9 / events, "ns/event", event_base);

  // Engine rungs: the sequential engine event by event, and the sharded
  // engine's EvaluateBatch at 2 shards, each over a private world copy.
  double seq_s = 0;
  double sharded_s = 0;
  {
    SystemState world = scenario.initial;
    MovementDatabase movements;
    AccessControlEngine engine(&world.graph, &world.auth_db, &movements,
                               &world.profiles, scenario.engine);
    for (const auto& batch : b.merged) {
      const Clock::time_point t0 = Clock::now();
      for (const AccessEvent& e : batch) ApplyAccessEvent(&engine, e);
      seq_s += SecondsSince(t0);
    }
    const double hits = static_cast<double>(world.auth_db.cache_hits());
    const double misses = static_cast<double>(world.auth_db.cache_misses());
    add("core.auth_cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0,
        "fraction",
        "n=" + std::to_string(static_cast<uint64_t>(hits + misses)) +
            " candidate lookups");
  }
  {
    SystemState world = scenario.initial;
    ShardedEngineOptions options;
    options.num_shards = 2;
    options.engine = scenario.engine;
    ShardedDecisionEngine engine(&world.graph, &world.auth_db, &world.profiles,
                                 options);
    for (const auto& batch : b.merged) {
      const Clock::time_point t0 = Clock::now();
      engine.EvaluateBatch(batch);
      sharded_s += SecondsSince(t0);
    }
  }
  add("engine.ns_per_event",
      (spec.shards >= 2 ? sharded_s : seq_s) * 1e9 / events, "ns/event",
      event_base + (spec.shards >= 2 ? ", 2-shard EvaluateBatch"
                                     : ", sequential engine"));
  add("engine.fanout_us_per_batch",
      (sharded_s - seq_s) * 1e6 / static_cast<double>(b.merged.size()),
      "us/batch", event_base + ", 2-shard minus 1-shard");

  // Protocol rung: the request and response codecs, frame by frame.
  {
    double encode_s = 0;
    double decode_s = 0;
    size_t at = 0;
    for (const std::vector<AccessEvent>* frame : b.frames) {
      WireBatchResult result;
      result.decisions.assign(decisions.begin() + at,
                              decisions.begin() + at + frame->size());
      at += frame->size();
      Clock::time_point t0 = Clock::now();
      const std::string request = EncodeApplyBatchRequest(*frame);
      const std::string response = EncodeBatchResult(result);
      encode_s += SecondsSince(t0);
      t0 = Clock::now();
      Result<std::vector<AccessEvent>> events_back =
          DecodeApplyBatchRequest(request);
      Result<WireBatchResult> result_back = DecodeBatchResult(response);
      decode_s += SecondsSince(t0);
      if (!events_back.ok() || !result_back.ok() ||
          events_back->size() != frame->size() ||
          result_back->decisions.size() != frame->size()) {
        return Status::Internal("protocol round trip lost events");
      }
    }
    const std::string base = Count(b.frames.size(), "frames");
    add("protocol.encode_ns_per_event", encode_s * 1e9 / events, "ns/event",
        base);
    add("protocol.decode_ns_per_event", decode_s * 1e9 / events, "ns/event",
        base);
  }

  // Storage rung: the same batches through a durable runtime, minus the
  // in-memory time; WAL bytes it wrote; in-process recovery of a copy
  // of the crashed server directory.
  if (spec.durable) {
    LTAM_ASSIGN_OR_RETURN(SyncMode mode, ParseSyncMode(spec.sync_mode));
    RuntimeOptions durable = mem;
    durable.durable_dir = in.scratch_dir;
    durable.durability.mode = mode;
    const size_t n = std::min(b.merged.size(), kDurableBatches);
    double dur_s = 0;
    double same_mem_s = 0;
    size_t dur_events = 0;
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
    {
      LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                            AccessRuntime::Open(scenario.initial, durable));
      LTAM_RETURN_IF_ERROR(RegisterAndDeriveScriptedRules(rt.get()));
      bytes_before = DirectoryBytes(in.scratch_dir);
      for (size_t i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        LTAM_ASSIGN_OR_RETURN(BatchResult r, rt->ApplyBatch(b.merged[i]));
        dur_s += SecondsSince(t0);
        if (!r.durability.ok()) return r.durability;
        same_mem_s += mem_batch_s[i];
        dur_events += b.merged[i].size();
      }
      LTAM_RETURN_IF_ERROR(rt->WaitDurable());
      bytes_after = DirectoryBytes(in.scratch_dir);
    }
    const std::string base = Count(dur_events, "events") + " in " +
                             Count(n, "batches") + ", " + spec.sync_mode +
                             " sync on " + FilesystemType(in.scratch_dir);
    add("storage.ns_per_event",
        (dur_s - same_mem_s) * 1e9 / static_cast<double>(dur_events),
        "ns/event", base);
    add("storage.wal_bytes_per_event",
        static_cast<double>(bytes_after - bytes_before) /
            static_cast<double>(dur_events),
        "B/event", base);

    RuntimeOptions recover = durable;
    recover.durable_dir = in.crashed_copy;
    recover.retention.horizon = spec.retention_horizon;
    recover.retention.max_hot_events = spec.retention_hot_events;
    const Clock::time_point t0 = Clock::now();
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                          AccessRuntime::Open(scenario.initial, recover));
    add("storage.recover_ms", SecondsSince(t0) * 1e3, "ms",
        "AccessRuntime::Open of the crashed directory (" +
            std::to_string(DirectoryBytes(in.crashed_copy)) + " B)");
  } else {
    const char* const kStorageRungs[][2] = {
        {"storage.ns_per_event", "ns/event"},
        {"storage.wal_bytes_per_event", "B/event"},
        {"storage.recover_ms", "ms"}};
    for (const auto& [name, unit] : kStorageRungs) {
      add(name, 0.0, unit, "in-memory server: no storage layer");
    }
  }

  // Query rung: each statement kind on the end-of-run state.
  const QueryInterpreter interpreter(
      &in.end_state->query(), &in.end_state->graph(),
      &in.end_state->profiles(), &in.end_state->movements(),
      &in.end_state->auth_db());
  struct KindCost {
    const char* metric;
    double scale;
    const char* unit;
  };
  const KindCost costs[kQueryKinds] = {
      {"core.can_us", 1e6, "us"},           {"core.who_can_us", 1e6, "us"},
      {"core.inaccessible_us", 1e6, "us"},  {"query.where_was_us", 1e6, "us"},
      {"query.occupants_us", 1e6, "us"},    {"query.contacts_ms", 1e3, "ms"},
  };
  for (int k = 0; k < kQueryKinds; ++k) {
    double total_s = 0;
    double rows = 0;
    size_t n = 0;
    for (const PoolQuery& q : in.pool) {
      if (static_cast<int>(q.kind) != k || n == kStatementsPerKind) continue;
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> r = interpreter.Run(q.statement);
      total_s += SecondsSince(t0);
      if (!r.ok()) return r.status();
      rows += static_cast<double>(r->rows.size());
      ++n;
    }
    const std::string base =
        Count(n, "statements") + " on the reference end state";
    add(costs[k].metric, n == 0 ? 0 : total_s * costs[k].scale / n,
        costs[k].unit, base);
    add(std::string("query.rows_per_query.") +
            QueryKindName(static_cast<QueryKind>(k)),
        n == 0 ? 0 : rows / n, "rows", base);
  }
  return out;
}

}  // namespace ltam::perfbench
