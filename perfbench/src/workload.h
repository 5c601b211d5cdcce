// Copyright 2026 The LTAM Authors.
// The benchmark's workloads and the query pools they read with.
//
//  - durable_ingest: soak world on a 2-shard durable server with
//    retention on; open-loop Poisson ingest on 2 connections plus
//    Checkpoint calls at fixed stream positions on a third; the query
//    layer is idle until the end-of-run sweep. Then kill -9 and
//    recovery.
//  - read_mix: contact world on the 1-shard in-memory server; open-loop
//    ingest on 2 connections and an open-loop query stream (equal
//    shares of six statement kinds) on 2 more.
//
// Every workload is a pure function of (name, seed, seconds): the seed
// picks the world and the arrival schedule, never the shape.

#ifndef LTAM_PERFBENCH_WORKLOAD_H_
#define LTAM_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/workload.h"
#include "util/result.h"

namespace ltam::perfbench {

struct WorkloadSpec {
  std::string name;
  ScenarioFamily family = ScenarioFamily::kSoak;
  ScenarioOptions scenario;
  uint32_t shards = 1;
  bool durable = false;
  /// Durable servers only.
  std::string sync_mode = "pipelined";
  Chronon retention_horizon = 0;
  size_t retention_hot_events = 0;

  /// Poisson frame arrivals at `rate` events/s summed over the ingest
  /// connections, at most `max_in_flight` frames per connection.
  double rate = 0.0;
  size_t max_in_flight = 256;

  /// Open-loop queries during the load, split over two connections
  /// (0 = the query layer stays idle until the end-of-run sweep).
  size_t concurrent_queries = 0;
  /// Checkpoint calls during the load, at fixed stream positions.
  size_t checkpoints = 0;
  /// Statements in the end-of-run sweep (when there is no concurrent
  /// pool to sweep).
  size_t sweep_queries = 0;
  /// Length, in chronons, of the recent window a statement reads.
  Chronon query_window = 200;

  /// Server launches per run for setup_s and recovery_s (medians).
  int setup_launches = 11;
  int recovery_launches = 11;

  /// Seed of the arrival schedules and query pools.
  uint64_t schedule_seed = 0;

  /// ltam_serve flags for this workload (the durable dir when durable).
  std::vector<std::string> ServerArgs(const std::string& durable_dir) const;
};

/// The named workload at `seed`, sized for a run of `seconds`.
Result<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed,
                                  double seconds);

enum class QueryKind : uint8_t {
  kCan = 0,
  kWhoCan = 1,
  kInaccessible = 2,
  kWhereWas = 3,
  kOccupants = 4,
  kContacts = 5,
};
constexpr int kQueryKinds = 6;
const char* QueryKindName(QueryKind kind);

struct PoolQuery {
  QueryKind kind = QueryKind::kCan;
  std::string statement;
};

/// `count` statements in equal shares of the six kinds (round-robin),
/// subjects and locations drawn from `scenario` with `seed`. Statement
/// i reads the `window` chronons up to `now_of(i)`: CONTACTS OF covers
/// that window, point-in-time kinds pick an instant inside its recent
/// half, WHO CAN ACCESS covers the window ahead of it.
std::vector<PoolQuery> MakeQueryPool(const LoadScenario& scenario,
                                     size_t count, uint64_t seed,
                                     Chronon window,
                                     const std::function<Chronon(size_t)>& now_of);

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_WORKLOAD_H_
