// Copyright 2026 The LTAM Authors.
// The load phase: one process, one thread and one ServiceClient per
// connection, driving a live ltam_serve.
//
// Ingest connections send their scenario stream's 32-event frames
// pipelined, open loop: each frame is due at a seeded Poisson arrival and
// its latency is measured from that scheduled time, so a stall is charged
// to every frame queued behind it. Control connections issue synchronous
// Query and Checkpoint calls at scheduled times. Every operation leaves an
// OpRecord — the driver-side span: scheduled arrival, send, end of
// submit, response — kept in memory and written out after the run.

#ifndef LTAM_PERFBENCH_LOAD_H_
#define LTAM_PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/workload.h"
#include "util/result.h"
#include "workload.h"

namespace ltam::perfbench {

enum class OpKind : uint8_t { kFrame = 0, kQuery = 1, kCheckpoint = 2 };

/// One operation's driver-side span. Times are nanoseconds since the
/// run's common start. `ok` is false for a refused, errored or
/// unanswered operation.
struct OpRecord {
  OpKind kind = OpKind::kFrame;
  bool ok = false;
  uint32_t conn = 0;
  /// Client request id (frames), else the op's sequence on its
  /// connection.
  uint32_t id = 0;
  /// Frame index in the connection's stream, or query pool index.
  uint32_t index = 0;
  uint32_t events = 0;
  uint64_t sched_ns = 0;
  uint64_t send_ns = 0;
  uint64_t submit_end_ns = 0;
  uint64_t done_ns = 0;
};

/// A synchronous call scheduled on a control connection.
struct SyncOp {
  uint64_t sched_ns = 0;
  OpKind kind = OpKind::kQuery;
  uint32_t pool_index = 0;
};

struct LoadPlan {
  /// Ingest connection c sends scenario.streams[c] at
  /// frame_schedule[c] (nanosecond offsets).
  std::vector<std::vector<uint64_t>> frame_schedule;
  /// One list per control connection, in schedule order.
  std::vector<std::vector<SyncOp>> control;
  std::vector<PoolQuery> pool;
};

struct ConnectionLog {
  std::vector<OpRecord> ops;
  /// Ingest connections: per stream frame, whether it was acknowledged
  /// and the DigestDecisions of its decisions.
  std::vector<uint8_t> acked;
  std::vector<uint64_t> digest;
  /// Sends that started more than 1 ms after their scheduled time, out
  /// of `sends`, and the worst lag.
  uint64_t late_sends = 0;
  uint64_t sends = 0;
  uint64_t max_lag_ns = 0;
  /// First error the connection hit (its unsent and unanswered
  /// operations are failures).
  Status status = Status::OK();
};

struct LoadResult {
  std::vector<ConnectionLog> ingest;
  std::vector<ConnectionLog> control;
};

/// Builds the plan: per-connection Poisson frame schedules (stream c at
/// rate/streams), the checkpoint positions, and the concurrent query
/// stream with its pool.
LoadPlan MakeLoadPlan(const WorkloadSpec& spec, const LoadScenario& scenario,
                      double seconds);

/// Runs the plan against 127.0.0.1:`port`. Fails only when a connection
/// cannot be opened; later errors are recorded per connection.
Result<LoadResult> RunLoadPhase(const WorkloadSpec& spec,
                                const LoadScenario& scenario,
                                const LoadPlan& plan, uint16_t port);

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_LOAD_H_
