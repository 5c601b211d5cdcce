// Copyright 2026 The LTAM Authors.
// The in-process ladder of a traced run: the run's acknowledged frames,
// merged into batches the size the server merged them, replayed through
// each layer's public entry point with one span per call. Differences
// between rungs give each layer's self time:
//
//   protocol  Encode/DecodeApplyBatchRequest, Encode/DecodeBatchResult
//   engine    AccessControlEngine (1 shard), ShardedDecisionEngine (2)
//   runtime   AccessRuntime::ApplyBatch, in memory
//   storage   durable ApplyBatch minus in-memory, WAL bytes, recovery
//   query     QueryInterpreter::Run per statement kind

#ifndef LTAM_PERFBENCH_LADDER_H_
#define LTAM_PERFBENCH_LADDER_H_

#include <string>
#include <vector>

#include "runtime/access_runtime.h"
#include "sim/workload.h"
#include "stats.h"
#include "workload.h"

namespace ltam::perfbench {

struct LadderInput {
  const WorkloadSpec* spec = nullptr;
  const LoadScenario* scenario = nullptr;
  /// Acknowledged frames in canonical order.
  std::vector<const std::vector<AccessEvent>*> frames;
  /// Frames per merged batch, as the server's scrape reported it.
  double frames_per_batch = 1.0;
  /// The end-of-run state the statements are timed against.
  const AccessRuntime* end_state = nullptr;
  std::vector<PoolQuery> pool;
  /// Durable workloads: an empty scratch directory for the durable
  /// rung, and a copy of the crashed server directory to recover.
  std::string scratch_dir;
  std::string crashed_copy;
};

/// Runs every rung; failures of a rung are returned.
Result<std::vector<Metric>> RunLadder(const LadderInput& in);

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_LADDER_H_
