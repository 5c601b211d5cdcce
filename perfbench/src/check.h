// Copyright 2026 The LTAM Authors.
// The correctness gate every run passes before it may report a number:
//
//  - each ingest connection's per-frame decision digests equal those of
//    an in-process reference replay of the same acknowledged frames;
//  - the end-of-run query sweep is byte-identical to the reference's
//    answers to the same statements;
//  - after kill -9 and restart, the recovered state shows every
//    subject's last acknowledged event and the sweep is unchanged.

#ifndef LTAM_PERFBENCH_CHECK_H_
#define LTAM_PERFBENCH_CHECK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "query/query_language.h"
#include "runtime/access_runtime.h"
#include "sim/workload.h"
#include "util/result.h"
#include "workload.h"

namespace ltam::perfbench {

/// Acknowledged frames, per connection and stream frame index.
using AckedFrames = std::vector<std::vector<uint8_t>>;
/// DigestDecisions per connection and stream frame index.
using FrameDigests = std::vector<std::vector<uint64_t>>;

/// The acknowledged frames in the canonical round order (round r is
/// stream 0's frame r, stream 1's frame r, ...), unacknowledged frames
/// skipped. Subjects are disjoint across streams, so every interleaving
/// of the streams the server's coalescer can produce decides alike.
std::vector<const std::vector<AccessEvent>*> AckedFramesInOrder(
    const LoadScenario& scenario, const AckedFrames& acked);

struct Reference {
  FrameDigests digests;
  uint64_t events = 0;
  std::unique_ptr<AccessRuntime> runtime;
};

/// Replays the acknowledged frames, one ApplyBatch per frame, through a
/// fresh in-memory runtime with `shards` shards over a copy of the
/// scenario's world.
Result<Reference> ReplayReference(const LoadScenario& scenario,
                                  const AckedFrames& acked, uint32_t shards);

/// First connection/frame whose served digest differs from the
/// reference, as an error.
Status CheckDigests(const AckedFrames& acked, const FrameDigests& served,
                    const FrameDigests& reference);

/// A canonical rendering of an answer (error answers included).
std::string RenderAnswer(const Result<QueryResult>& answer);

/// Answers every statement of `pool` through `run`, rendered.
std::vector<std::string> Sweep(
    const std::vector<PoolQuery>& pool,
    const std::function<Result<QueryResult>(const std::string&)>& run);

/// The reference runtime's answers to `pool`.
std::vector<std::string> SweepRuntime(const AccessRuntime& runtime,
                                      const std::vector<PoolQuery>& pool);

/// First statement whose answers differ, as an error naming `what`.
Status CheckSweep(const std::vector<PoolQuery>& pool,
                  const std::vector<std::string>& served,
                  const std::vector<std::string>& reference,
                  const std::string& what);

/// One WHERE WAS statement per subject, at the time of its last
/// acknowledged event (subjects whose last event is older than
/// `not_before` are left out). The server's applied watermark restarts
/// at zero in a recovered process, so this is how a run shows that the
/// recovered state still holds every subject's acknowledged tail.
std::vector<PoolQuery> TailProbe(const LoadScenario& scenario,
                                 const AckedFrames& acked, Chronon not_before);

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_CHECK_H_
