// Copyright 2026 The LTAM Authors.
// Pipelined write-ahead logging: one log thread per durable runtime and
// commit pipelining.
//
// The original durability discipline (PR 2) has every shard worker
// append its slice to the shard's WAL and then pay one group-commit
// fsync per shard per batch. That fsync sits on the batch's critical
// path: the engine cannot return until the slowest shard's barrier
// lands. A LogPipeline decouples the two, the way journaling
// filesystems and replicated-log daemons do:
//
//  - append fast: each shard's appends encode into a producer-local
//    buffer, and the shard's batch boundary publishes the buffer onto
//    the shard's commit queue without waking anyone;
//  - sync in one flusher: the owner wakes the pipeline's one log thread
//    once per engine batch (LogPipeline::Wake), after every shard's
//    boundary. The thread drains every shard's queue, writes each
//    shard's drained records with one write(2), fsyncs every file whose
//    bound is due, and only then advances those shards' durable
//    sequences. Batching appends across *multiple* engine batches into
//    one fsync (commit pipelining) is bounded by a fixed batch depth
//    and byte count per shard (log_pipeline.cc).
//
// Each shard keeps its own state: its WAL file, its pending buffer, its
// appended and durable sequences, its sticky error, its failure
// counters and its fault-injector attempt counts. A pipeline writes one
// file per shard for its whole checkpoint epoch; the owner's Checkpoint
// starts the next epoch with a fresh pipeline.
//
// The durability position is the watermark pair (applied, durable):
// `applied` counts records accepted onto the queue (their events are
// applied to live state), `durable` counts records whose bytes an fsync
// has made crash-proof. LogPipeline::Flush is the barrier that closes
// the gap on demand.
//
// Error semantics by mode:
//  - kBatch reproduces the original discipline byte for byte and starts
//    no thread: Append writes synchronously on the caller's thread and a
//    failure REFUSES the event (the engine turns that into
//    Deny(kWalError) and never applies it); BatchBoundary fsyncs the
//    shard's file on the caller's thread, and its failure means applied
//    events' durability is in doubt.
//  - kPipelined never refuses an append: the event was already
//    accepted when the worker buffered it, so a later write/fsync
//    failure must not rewrite history. The failing shard goes
//    STICKY-FAILED instead, alone: its watermark freezes at its last
//    durable record, its subsequent queued records are dropped (a log
//    with holes would replay a stream that never happened), its failure
//    counters tick, and the sticky error surfaces through its
//    BatchBoundary and the pipeline's Flush. The other shards keep
//    logging. Decisions are never affected — that is the contract the
//    fault-injection tests pin down. A failed fsync is sticky too, even
//    though every record was already written: a retried fsync can
//    report success for dirty pages the kernel dropped after the first
//    failure, so only a Checkpoint (which rebuilds the logs from fresh
//    snapshots) clears the error.

#ifndef LTAM_STORAGE_LOG_PIPELINE_H_
#define LTAM_STORAGE_LOG_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/event_log.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "util/result.h"

namespace ltam {

/// When the durable runtimes fsync their logs.
enum class SyncMode {
  /// One group-commit fsync per shard per batch, on the batch's critical
  /// path (the original discipline; byte-identical to it).
  kBatch,
  /// One log thread per runtime batches appends across engine batches
  /// into one fsync per shard; a shard's file is synced once 4 batch
  /// boundaries or 1 MiB of unsynced bytes accumulate on it, and
  /// whenever its drained queue leaves a completed batch unsynced (so an
  /// idle system converges to durable == applied without waiting on a
  /// timer).
  kPipelined,
};

const char* SyncModeToString(SyncMode mode);

/// Parses "batch" / "pipelined".
Result<SyncMode> ParseSyncMode(const std::string& name);

/// The durable write path's settings, threaded from RuntimeOptions
/// down to each shard's log.
struct DurabilityOptions {
  SyncMode mode = SyncMode::kBatch;
  /// Test-only fault injection, called before every physical record
  /// append and fsync with op "append"/"sync" and the 1-based attempt
  /// count on that shard's log; a non-OK return simulates that failure.
  /// Null in production.
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
  /// MonotonicNowNs() when `durable` last advanced (0 if it never has):
  /// lets an observer that polls the watermark date a durable advance
  /// without polling fast.
  uint64_t durable_ns = 0;
};

class LogPipeline;

/// One shard's write-ahead log inside a LogPipeline.
///
/// Thread contract: Append/BatchBoundary are called by the owning
/// shard's worker (one at a time); the sequence and failure accessors
/// may be called from any thread.
class ShardLog {
 public:
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Appends one record, rendered straight into the shard's buffer.
  /// kBatch: synchronous write-through; a non-OK status means the record
  /// was NOT written (refuse the event). kPipelined: buffers it and
  /// returns OK — never an error (failures surface asynchronously; see
  /// file comment).
  Status Append(const LoggedEvent& record);

  /// Marks a batch boundary (the group-commit point). kBatch: fsync
  /// now. kPipelined: counts one pipeline group and publishes the
  /// buffered records to the log thread, which sees them at its next
  /// wakeup (LogPipeline::Wake). A non-OK status reports a sync failure
  /// (or the sticky pipelined error) — applied events' durability is in
  /// doubt but they were applied.
  Status BatchBoundary();

  /// Sequence of the last accepted record / last durable record.
  uint64_t appended_seq() const;
  uint64_t durable_seq() const;

  /// Physical failures observed (sticky in pipelined mode; per-event
  /// refusals in batch mode).
  uint64_t append_failures() const;
  uint64_t sync_failures() const;

 private:
  friend class LogPipeline;

  /// Records a shard buffered, in order, and how many boundaries it
  /// marked among them (the sync policy needs only the count); the same
  /// shape at every hand-off (pending, queued, drained).
  struct Chunk {
    std::string lines;  // Encoded records, one '\n'-terminated line each.
    uint64_t records = 0;
    uint64_t boundaries = 0;
    bool empty() const { return records == 0 && boundaries == 0; }
    void clear() {
      lines.clear();
      records = 0;
      boundaries = 0;
    }
  };

  ShardLog(LogPipeline* pipeline, FileWriter writer);

  /// Moves pending_ onto queued_ and returns the sticky error, in one
  /// lock acquisition. Producer thread (or control phase) only.
  Status Publish();
  /// Log thread: writes the clean prefix of a drained chunk with one
  /// write(2), consulting the fault injector once per record. A failure
  /// makes the shard sticky; a sticky shard drops the chunk and counts
  /// it.
  void WriteChunk(const Chunk& chunk);
  /// fsyncs through the fault injector, then publishes the outcome:
  /// durable_ advances to `covered`, or the failure is counted (and in
  /// kPipelined made sticky). No lock held on entry. Runs on the log
  /// thread in kPipelined, on the caller's thread in kBatch.
  Status SyncThrough(uint64_t covered);

  LogPipeline* const pipeline_;

  // Log-thread-owned (batch mode: owned by the appending thread).
  FileWriter writer_;
  uint64_t written_seq_ = 0;  // Last seq physically written.
  uint64_t unsynced_bytes_ = 0;
  uint64_t unsynced_groups_ = 0;
  uint64_t append_attempts_ = 0;
  uint64_t sync_attempts_ = 0;

  /// Producer-side buffer (the shard worker's thread): pipelined Append
  /// encodes into it with no lock and no wakeup, and BatchBoundary
  /// publishes the whole slice onto queued_ in one lock acquisition.
  /// The log thread sees a batch's records at the batch's wakeup, which
  /// still overlaps their write+fsync with the NEXT batch's evaluation
  /// (the pipelining that matters). kBatch uses its buffer as each
  /// synchronous append's scratch line.
  Chunk pending_;
  /// Last accepted seq. Atomic (not lock-guarded): bumped by the single
  /// producer, read by watermark/stats threads.
  std::atomic<uint64_t> appended_{0};

  // Guarded by pipeline_->mu_. In kPipelined only the log thread writes
  // durable_ and sticky_error_, so it reads them unlocked.
  Chunk queued_;
  uint64_t durable_ = 0;  // Last fsynced seq.
  Status sticky_error_;   // First pipelined write/sync failure.
  uint64_t append_failures_ = 0;
  uint64_t sync_failures_ = 0;
};

/// A durable runtime's shard logs under one SyncMode: one ShardLog per
/// FileWriter (each positioned at its file's tail), in shard order, and
/// in kPipelined the one log thread that writes and syncs them all.
/// kBatch starts no thread and is byte-identical to driving each
/// FileWriter directly (the equivalence matrix relies on it).
///
/// Thread contract: Wake/Flush and destruction run on the control
/// thread; Wake after every shard's BatchBoundary of a batch, Flush and
/// the destructor with the producers quiesced. The destructor publishes
/// every shard's unpublished tail, lets the log thread drain, write and
/// sync it (best effort), and joins the thread.
class LogPipeline {
 public:
  LogPipeline(std::vector<FileWriter> writers, DurabilityOptions options);
  ~LogPipeline();
  LogPipeline(const LogPipeline&) = delete;
  LogPipeline& operator=(const LogPipeline&) = delete;

  ShardLog& shard(uint32_t k) { return *shards_[k]; }
  const ShardLog& shard(uint32_t k) const { return *shards_[k]; }

  /// Wakes the log thread if any shard published records or boundaries
  /// it has not drained yet. The owner calls it once per batch, after
  /// every participating shard's BatchBoundary. A no-op in kBatch.
  void Wake();

  /// Durability barrier over every shard: blocks until each shard's
  /// accepted records are durable (forcing the fsyncs) or the shard is
  /// sticky-failed, then returns the first shard's sticky error (OK if
  /// none).
  Status Flush();

  /// MonotonicNowNs() of the last durable advance on any shard, 0 if
  /// none yet.
  uint64_t durable_ns() const;

 private:
  friend class ShardLog;

  void ThreadLoop();
  /// Log thread: whether `log`'s file must be fsynced after this
  /// round's writes.
  bool SyncDue(const ShardLog& log, bool forced, bool drained) const;

  const DurabilityOptions options_;
  Histogram* sync_histogram_ = nullptr;  // Resolved once in the ctor.
  std::vector<std::unique_ptr<ShardLog>> shards_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // The log thread waits here.
  std::condition_variable durable_cv_;  // Barriers wait here.
  bool wake_ = false;
  bool flush_requested_ = false;
  bool stop_ = false;
  uint64_t durable_ns_ = 0;

  std::thread thread_;  // Joinable only in kPipelined.
};

}  // namespace ltam

#endif  // LTAM_STORAGE_LOG_PIPELINE_H_
