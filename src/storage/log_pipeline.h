// Copyright 2026 The LTAM Authors.
// Write-ahead logging: one log per durable runtime, written by one log
// thread, with commit pipelining.
//
// Every shard worker logs its slice before it applies it, but no worker
// writes or fsyncs: a LogPipeline keeps both off the batch's critical
// path, the way journaling filesystems and replicated-log daemons do:
//
//  - append fast: each producer slot (one per shard worker, and one for
//    the owner's control thread) encodes its records into its own
//    buffer, with no lock and no wakeup;
//  - publish once per batch: the control thread's Publish moves every
//    slot's buffer onto the one queue in slot order, as one group, and
//    wakes the log thread. A batch's bytes in the file therefore do not
//    depend on which worker finished first;
//  - sync in one flusher: the log thread writes each drained queue with
//    one write(2) to the runtime's one file, fsyncs it when a bound is
//    due, and only then advances the durable sequence. Batching several
//    groups into one fsync (commit pipelining) is bounded by a fixed
//    group depth and byte count (log_pipeline.cc), and a round whose
//    queue drains fsyncs at once.
//
// The pipeline has one file, one sequence, one sticky error, one set of
// failure counters and one set of fault-injector attempt counts. Its
// thread starts with the pipeline and stops at its destruction; a
// checkpoint hands it the next epoch's file (SwapFile), and the
// sequence carries on across files.
//
// The durability position is the watermark pair (applied, durable):
// `applied` counts published records (their events are applied to live
// state), `durable` counts records whose bytes an fsync has made
// crash-proof. LogPipeline::Flush is the barrier that waits for the gap
// to close; a network server answers a batch only after it.
//
// Error semantics: an append never fails. The event was already
// accepted when the worker buffered it, so a later write/fsync failure
// must not rewrite history. The log goes STICKY-FAILED instead, and with
// it every shard's durability: the watermark freezes at the last
// durable record, every later record is dropped and counted (a log with
// holes would replay a stream that never happened), and the sticky
// error surfaces through Publish and Flush. Decisions are never
// affected — that is the contract the fault-injection tests pin down. A
// failed fsync is sticky too, even though every record was already
// written: a retried fsync can report success for dirty pages the
// kernel dropped after the first failure, so only a checkpoint's file
// swap (the snapshot supersedes the lost tail) clears the error.

#ifndef LTAM_STORAGE_LOG_PIPELINE_H_
#define LTAM_STORAGE_LOG_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/event_log.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "util/result.h"

namespace ltam {

/// How the durable runtimes fsync their logs. One mode is left; the
/// enum and its parser stay so that configurations naming it keep
/// working.
enum class SyncMode {
  /// One log thread per runtime batches published groups into one
  /// fsync of the runtime's one file; the file is synced once 4 groups
  /// or 1 MiB of unsynced bytes accumulate, and whenever a round drains
  /// the queue with a group unsynced (so an idle system converges to
  /// durable == applied without waiting on a timer).
  kPipelined,
};

const char* SyncModeToString(SyncMode mode);

/// Parses "pipelined"; any other name is InvalidArgument.
Result<SyncMode> ParseSyncMode(const std::string& name);

/// The durable write path's settings, threaded from RuntimeOptions
/// down to the runtime's log.
struct DurabilityOptions {
  SyncMode mode = SyncMode::kPipelined;
  /// Test-only fault injection, called by the log thread before every
  /// record it writes and every fsync, with op "append"/"sync" and the
  /// 1-based attempt count on the runtime's log (counted across
  /// checkpoints); a non-OK return simulates that failure. Null in
  /// production.
  std::function<Status(const char* op, uint64_t count)> fault_injector;
  /// Telemetry (may be null; borrowed, must outlive the runtime). When
  /// set, every physical WAL fsync records its wall duration in the
  /// "wal.sync" histogram.
  MetricsRegistry* metrics = nullptr;
};

/// The durability position of a runtime: how many log records have been
/// accepted (their events applied to live state) vs made crash-proof.
/// durable == applied means nothing would be lost by a crash right now.
struct DurabilityWatermark {
  uint64_t applied = 0;
  uint64_t durable = 0;
};

/// A durable runtime's write-ahead log: its producer slots, one file,
/// and the one log thread that writes and syncs it.
///
/// Thread contract: Append(k, …) is called by slot k's producer (one
/// thread at a time per slot). Publish, Flush, SwapFile and destruction
/// run on the control thread with the producers quiesced (a server's
/// coalescer flushes under the runtime's shared lock, which excludes
/// every producer). The sequence and failure accessors may be called
/// from any thread. The destructor publishes any unpublished tail, lets
/// the log thread write and sync it (best effort), and joins the thread.
class LogPipeline {
 public:
  /// Starts the log thread. Records go to the file the first SwapFile
  /// hands over; the owner does that before anything is appended.
  LogPipeline(uint32_t num_slots, DurabilityOptions options);
  ~LogPipeline();
  LogPipeline(const LogPipeline&) = delete;
  LogPipeline& operator=(const LogPipeline&) = delete;

  /// Appends one record to `slot`'s buffer. It cannot fail: write and
  /// fsync failures surface later, through the sticky error.
  void Append(uint32_t slot, const LoggedEvent& record);

  /// The group-commit boundary: moves every slot's buffered records
  /// onto the queue, in slot order, as one group, and wakes the log
  /// thread if anything moved. Returns the sticky error — applied
  /// events' durability is in doubt, but they were applied.
  Status Publish();

  /// Durability barrier: publishes any unpublished records, then blocks
  /// until every published record is durable or the log is
  /// sticky-failed, and returns the sticky error (OK if none). The
  /// round that drains a group fsyncs it, so the barrier adds no round
  /// of its own.
  Status Flush();

  /// Hands the idle log thread `writer` (positioned at its file's end)
  /// for every later record, under the pipeline's lock. The owner
  /// calls it after Flush, so nothing is queued: the sequence carries
  /// on, the durable sequence catches up with the appended one (the
  /// caller's snapshot holds whatever a failed log lost), and the
  /// sticky error clears.
  void SwapFile(FileWriter writer);

  /// Records published / fsynced since construction.
  uint64_t appended_seq() const;
  uint64_t durable_seq() const;

  /// Records `slot` published into the current file (control thread).
  uint64_t slot_records(uint32_t slot) const { return file_records_[slot]; }

  /// Physical failures observed since construction: records a failed
  /// write lost or a failed log dropped, and failed fsyncs.
  uint64_t append_failures() const;
  uint64_t sync_failures() const;

 private:
  /// Records in order and how many boundaries they span (the sync
  /// policy needs only the count).
  struct Chunk {
    std::string lines;  // Encoded records, one '\n'-terminated line each.
    uint64_t records = 0;
    uint64_t boundaries = 0;
    bool empty() const { return records == 0; }
    void clear() {
      lines.clear();
      records = 0;
      boundaries = 0;
    }
  };
  /// One producer's buffer, on its own cache line so that workers
  /// appending side by side do not share one.
  struct alignas(64) Slot {
    std::string lines;
    uint64_t records = 0;
  };

  void ThreadLoop();
  /// Log thread: writes the clean prefix of a drained chunk with one
  /// write(2), consulting the fault injector once per record. A failure
  /// makes the log sticky; a sticky log drops the chunk and counts it.
  void WriteChunk(const Chunk& chunk);
  /// Log thread: whether the file must be fsynced after this round.
  bool SyncDue(bool forced, bool drained) const;
  /// Log thread: fsyncs through the fault injector, then publishes the
  /// outcome: durable_ advances to written_seq_, or the failure is
  /// counted and made sticky. No lock held on entry.
  void Sync();

  const DurabilityOptions options_;
  Histogram* sync_histogram_ = nullptr;  // Resolved once in the ctor.

  /// Producer-side buffers, one per slot, published by Publish.
  std::vector<Slot> slots_;
  /// Per slot, records published into the current file. Control
  /// thread only (Publish, SwapFile).
  std::vector<uint64_t> file_records_;
  /// Published records. Written by the control thread only; read by
  /// watermark and stats threads.
  std::atomic<uint64_t> appended_{0};

  // Log-thread-owned; SwapFile resets them while the thread is idle,
  // under mu_.
  FileWriter writer_;
  uint64_t written_seq_ = 0;  // Last seq physically written.
  uint64_t unsynced_bytes_ = 0;
  uint64_t unsynced_groups_ = 0;
  uint64_t append_attempts_ = 0;
  uint64_t sync_attempts_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // The log thread waits here.
  std::condition_variable durable_cv_;  // Barriers and SwapFile wait here.
  // Guarded by mu_. Only the log thread writes durable_ and
  // sticky_error_ while it runs a round, so it reads them unlocked.
  Chunk queued_;
  uint64_t durable_ = 0;  // Last fsynced seq.
  Status sticky_error_;   // First write/sync failure since the last swap.
  uint64_t append_failures_ = 0;
  uint64_t sync_failures_ = 0;
  bool wake_ = false;
  /// The log thread waits for work (true until its first round, too).
  bool idle_ = true;
  bool stop_ = false;

  std::thread thread_;
};

}  // namespace ltam

#endif  // LTAM_STORAGE_LOG_PIPELINE_H_
