// Copyright 2026 The LTAM Authors.
// Pipelined write-ahead logging: per-shard log threads and commit
// pipelining.
//
// The original durability discipline (PR 2) has every shard worker
// append its slice to the shard's WAL and then pay one group-commit
// fsync per shard per batch. That fsync sits on the batch's critical
// path: the engine cannot return until the slowest shard's barrier
// lands. ShardLog decouples the two, the way journaling filesystems and
// replicated-log daemons do:
//
//  - append fast: workers push encoded records onto an in-memory commit
//    queue and return immediately;
//  - sync in a dedicated flusher: one log thread per shard owns the
//    file, drains the queue, and batches appends across *multiple*
//    engine batches into one fsync (commit pipelining), bounded by a
//    fixed batch depth and byte count (log_pipeline.cc).
//
// A log writes one file for its whole checkpoint epoch; the owner's
// Checkpoint starts the next epoch with a fresh log.
//
// The durability position is the watermark pair (applied, durable):
// `applied` counts records accepted onto the queue (their events are
// applied to live state), `durable` counts records whose bytes an fsync
// has made crash-proof. Flush is the barrier that closes the gap on
// demand.
//
// Error semantics by mode:
//  - kBatch reproduces the PR-2 discipline byte for byte: Append writes
//    synchronously on the caller's thread and a failure REFUSES the
//    event (the engine turns that into Deny(kWalError) and never
//    applies it); BatchBoundary fsyncs and its failure means applied
//    events' durability is in doubt.
//  - kPipelined never refuses an append: the event was already
//    accepted when the worker enqueued it, so a later write/fsync
//    failure must not rewrite history. The log goes STICKY-FAILED
//    instead: the watermark freezes at the last durable record,
//    subsequent queued records are dropped (a log with holes would
//    replay a stream that never happened), failure counters tick, and
//    the sticky error surfaces through BatchBoundary / Flush.
//    Decisions are never affected — that is the contract the
//    fault-injection tests pin down. A failed fsync is sticky too, even
//    though every record was already written: a retried fsync can
//    report success for dirty pages the kernel dropped after the first
//    failure, so only a Checkpoint (which rebuilds the log from a fresh
//    snapshot) clears the error.

#ifndef LTAM_STORAGE_LOG_PIPELINE_H_
#define LTAM_STORAGE_LOG_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/codec.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "util/result.h"

namespace ltam {

/// When the durable runtimes fsync their logs.
enum class SyncMode {
  /// One group-commit fsync per shard per batch, on the batch's
  /// critical path (the PR-2 discipline; byte-identical to it).
  kBatch,
  /// A dedicated log thread per shard batches appends across engine
  /// batches into one fsync; syncs when 4 batch boundaries or 1 MiB of
  /// unsynced bytes accumulate, and whenever the queue drains with a
  /// completed batch pending (so an idle system converges to
  /// durable == applied without waiting on a timer).
  kPipelined,
};

const char* SyncModeToString(SyncMode mode);

/// Parses "batch" / "pipelined".
Result<SyncMode> ParseSyncMode(const std::string& name);

/// The durable write path's settings, threaded from RuntimeOptions
/// down to each shard's log.
struct DurabilityOptions {
  SyncMode mode = SyncMode::kBatch;
  /// Test-only fault injection, called before every physical append and
  /// fsync with op "append"/"sync" and the 1-based attempt count on
  /// this log; a non-OK return simulates that failure. Null in
  /// production.
  std::function<Status(const char* op, uint64_t count)> fault_injector;
  /// Telemetry (may be null; borrowed, must outlive the runtime). When
  /// set, every physical WAL fsync records its wall duration in the
  /// "wal.sync" histogram — one series across shards; the per-shard
  /// split has never been the interesting axis, the fsync cost is.
  MetricsRegistry* metrics = nullptr;
};

/// The durability position of a runtime: how many log records have been
/// accepted (their events applied to live state) vs made crash-proof.
/// durable == applied means nothing would be lost by a crash right now.
struct DurabilityWatermark {
  uint64_t applied = 0;
  uint64_t durable = 0;
};

/// One shard's write-ahead log under a chosen SyncMode. Construction
/// wraps an open WalWriter positioned at the log file's tail;
/// kPipelined spawns the log thread, kBatch stays synchronous
/// on the caller's thread (and is byte-identical to driving the
/// WalWriter directly, which the equivalence matrix relies on).
///
/// Thread contract: Append/BatchBoundary are called by the owning
/// shard's worker (one at a time); Flush/watermark/counters
/// may be called from the control thread concurrently with the log
/// thread. The destructor drains the queue, makes a best-effort final
/// sync, and joins the thread.
class ShardLog {
 public:
  ShardLog(WalWriter writer, DurabilityOptions options);
  ~ShardLog();
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Appends one record. kBatch: synchronous write-through; a non-OK
  /// status means the record was NOT written (refuse the event).
  /// kPipelined: enqueues and returns OK — never an error (failures
  /// surface asynchronously; see file comment).
  Status Append(const Record& record);

  /// Marks a batch boundary (the group-commit point). kBatch: fsync
  /// now. kPipelined: counts one pipeline group and returns
  /// immediately. A non-OK status reports a sync failure (or the sticky
  /// pipelined error) — applied events' durability is in doubt but they
  /// were applied.
  Status BatchBoundary();

  /// Durability barrier: blocks until every accepted record is durable
  /// (forcing an fsync), or returns the sticky error.
  Status Flush();

  /// Sequence of the last accepted record / last durable record.
  uint64_t appended_seq() const;
  uint64_t durable_seq() const;

  /// Physical failures observed (sticky in pipelined mode; per-event
  /// refusals in batch mode).
  uint64_t append_failures() const;
  uint64_t sync_failures() const;

 private:
  struct Entry {
    uint64_t seq = 0;     // 0 for pure boundary markers.
    std::string line;     // Encoded record + '\n'; empty for boundaries.
    bool boundary = false;
  };

  /// Publishes pending_ (producer-buffered records) onto the shared
  /// queue and wakes the log thread. Producer thread only.
  void PublishPending();

  void ThreadLoop();
  /// Writes one line through the fault injector; updates counters.
  Status WriteLine(const std::string& line);
  /// fsyncs through the fault injector; on success advances durable_.
  Status SyncNow(uint64_t covered_seq);
  /// Batch-mode synchronous body of Append.
  Status AppendSynchronous(const std::string& line);

  const DurabilityOptions options_;
  Histogram* sync_histogram_ = nullptr;  // Resolved once in the ctor.

  // Log-thread-owned (batch mode: caller-thread-owned; no concurrency).
  WalWriter writer_;
  uint64_t written_seq_ = 0;     // Last seq physically written.
  uint64_t unsynced_bytes_ = 0;
  size_t unsynced_groups_ = 0;
  uint64_t append_attempts_ = 0;
  uint64_t sync_attempts_ = 0;

  /// Producer-side buffer (the shard worker's thread): pipelined
  /// Append is a plain vector push — no lock, no wakeup — and
  /// BatchBoundary publishes the whole slice onto queue_ in one lock
  /// acquisition. This keeps the per-event hot path free of futex
  /// traffic; the trade is that the log thread sees a batch's records
  /// at its boundary, which still overlaps their write+fsync with the
  /// NEXT batch's evaluation (the pipelining that matters).
  std::vector<Entry> pending_;
  /// Last accepted seq. Atomic (not mu_-guarded): bumped by the single
  /// producer, read by watermark/stats threads.
  std::atomic<uint64_t> appended_{0};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // Log thread waits here.
  std::condition_variable durable_cv_;  // Barriers wait here.
  std::deque<Entry> queue_;
  uint64_t durable_ = 0;        // Last fsynced seq.
  Status sticky_error_;         // First pipelined write/sync failure.
  uint64_t append_failures_ = 0;
  uint64_t sync_failures_ = 0;
  bool flush_requested_ = false;
  bool stop_ = false;

  std::thread thread_;  // Joinable only in kPipelined.
};

}  // namespace ltam

#endif  // LTAM_STORAGE_LOG_PIPELINE_H_
