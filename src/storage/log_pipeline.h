// Copyright 2026 The LTAM Authors.
// Write-ahead logging: one log per durable runtime, written and fsynced
// by the thread that needs its records durable.
//
// Every shard worker logs its slice before it applies it, but no worker
// writes or fsyncs. A LogPipeline keeps both off the slices and puts
// them on the barrier, the way a write-group leader does in an LSM
// store's log: the thread that waits for a commit writes and syncs it
// itself, so no hand-off wakes a sleeping log thread.
//
//  - append fast: each producer slot (one per shard worker, and one for
//    the owner's control thread) encodes its records into its own
//    buffer, with no lock and no wakeup;
//  - publish once per batch: the control thread's Publish moves every
//    slot's buffer onto the one queue in slot order, as one group. A
//    batch's bytes in the file therefore do not depend on which worker
//    finished first. Publish wakes nobody; once 1 MiB is queued it
//    writes the queue itself (no fsync), which bounds the memory of a
//    caller that never flushes;
//  - flush at the barrier: Flush publishes, then takes the round mutex
//    and, unless an earlier round already covered its records, writes
//    everything queued with one write(2) to the runtime's one file and
//    fsyncs it once; only then does the durable sequence advance. A
//    second flusher whose records that round covered returns at once.
//
// Barriers: a network server flushes after every merged batch and every
// fix, before it answers; Checkpoint, a durable Tick and a replica
// link's applied chunk flush; destruction flushes, best effort. Records
// between barriers are applied but not durable: an in-process runtime
// that stops calling barriers keeps durable < applied until the next
// one (at most 1 MiB of them still in memory).
//
// Lock order: the runtime's lock (a server's shared or exclusive hold),
// then the round mutex, then the pipeline's state mutex. Nothing takes
// the runtime lock while holding the round mutex.
//
// The pipeline has one file, one sequence, one sticky error, one set of
// failure counters and one set of fault-injector attempt counts. A
// checkpoint hands it the next epoch's file (SwapFile), and the
// sequence carries on across files.
//
// The durability position is the watermark pair (applied, durable):
// `applied` counts published records (their events are applied to live
// state), `durable` counts records whose bytes an fsync has made
// crash-proof. LogPipeline::Flush is the barrier that closes the gap; a
// network server answers a batch only after it.
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
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
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
  /// Batches are published without a write; the next barrier (Flush)
  /// writes every published batch with one write(2) and one fsync of
  /// the runtime's one file, on the calling thread.
  kPipelined,
};

const char* SyncModeToString(SyncMode mode);

/// Parses "pipelined"; any other name is InvalidArgument.
Result<SyncMode> ParseSyncMode(const std::string& name);

/// The durable write path's settings, threaded from RuntimeOptions
/// down to the runtime's log.
struct DurabilityOptions {
  SyncMode mode = SyncMode::kPipelined;
  /// Test-only fault injection, called on the thread that runs a log
  /// round before every record it writes and every fsync, with op
  /// "append"/"sync" and the 1-based attempt count on the runtime's log
  /// (counted across checkpoints); a non-OK return simulates that
  /// failure. Null in production.
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

/// A durable runtime's write-ahead log: its producer slots and one file.
/// It runs no thread of its own.
///
/// Thread contract: Append(k, …) is called by slot k's producer (one
/// thread at a time per slot). Publish, Flush, SwapFile and destruction
/// run with the producers quiesced (a server flushes under the
/// runtime's shared lock, which excludes every producer); several
/// threads may flush at once, and their rounds serialize on the round
/// mutex. The sequence and failure accessors may be called from any
/// thread. The destructor flushes (best effort).
class LogPipeline {
 public:
  /// Records go to the file the first SwapFile hands over; the owner
  /// does that before anything is appended.
  LogPipeline(uint32_t num_slots, DurabilityOptions options);
  ~LogPipeline();
  LogPipeline(const LogPipeline&) = delete;
  LogPipeline& operator=(const LogPipeline&) = delete;

  /// Appends one record to `slot`'s buffer. It cannot fail: write and
  /// fsync failures surface later, through the sticky error.
  void Append(uint32_t slot, const LoggedEvent& record);

  /// The group-commit boundary: moves every slot's buffered records
  /// onto the queue, in slot order, as one group. It wakes nobody; once
  /// 1 MiB is queued it writes the queue, without an fsync. Returns the
  /// sticky error — applied events' durability is in doubt, but they
  /// were applied.
  Status Publish();

  /// Durability barrier: publishes any unpublished records, then, under
  /// the round mutex, writes everything queued with one write(2) and
  /// fsyncs the file once, unless an earlier round already made every
  /// published record durable. Returns the sticky error (OK if none).
  Status Flush();

  /// Hands the log `writer` (positioned at its file's end) for every
  /// later record, under the round mutex. The owner calls it after
  /// Flush, so nothing is queued: the sequence carries on, the durable
  /// sequence catches up with the appended one (the caller's snapshot
  /// holds whatever a failed log lost), and the sticky error clears.
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
  /// Published records in order, not yet written.
  struct Chunk {
    std::string lines;  // Encoded records, one '\n'-terminated line each.
    uint64_t records = 0;
    void clear() {
      lines.clear();
      records = 0;
    }
  };
  /// One producer's buffer, on its own cache line so that workers
  /// appending side by side do not share one.
  struct alignas(64) Slot {
    std::string lines;
    uint64_t records = 0;
  };

  /// Round holder: writes the clean prefix of everything queued with one
  /// write(2), consulting the fault injector once per record. A failure
  /// makes the log sticky; a sticky log drops the records and counts
  /// them.
  void WriteQueued();
  /// Round holder: fsyncs through the fault injector, then publishes the
  /// outcome: durable_ advances to written_seq_, or the failure is
  /// counted and made sticky.
  void Sync();

  const DurabilityOptions options_;
  Histogram* sync_histogram_ = nullptr;  // Resolved once in the ctor.

  /// Producer-side buffers, one per slot, published by Publish.
  std::vector<Slot> slots_;
  /// Per slot, records published into the current file. Written by
  /// Publish and SwapFile under mu_; the owner reads it between batches.
  std::vector<uint64_t> file_records_;
  /// Published records. Written under mu_; read by watermark and stats
  /// threads without it.
  std::atomic<uint64_t> appended_{0};

  /// Serializes log rounds (a write, and a flush's fsync) and SwapFile.
  /// The members below it up to mu_ belong to its holder.
  std::mutex round_mu_;
  FileWriter writer_;
  Chunk chunk_;  // The round's records, swapped out of queued_.
  uint64_t append_attempts_ = 0;
  uint64_t sync_attempts_ = 0;

  mutable std::mutex mu_;
  // Guarded by mu_; only a round holder (or SwapFile) writes
  // written_seq_, durable_ and sticky_error_.
  Chunk queued_;
  uint64_t written_seq_ = 0;  // Last seq physically written.
  uint64_t durable_ = 0;      // Last fsynced seq.
  Status sticky_error_;       // First write/sync failure since the swap.
  uint64_t append_failures_ = 0;
  uint64_t sync_failures_ = 0;
};

}  // namespace ltam

#endif  // LTAM_STORAGE_LOG_PIPELINE_H_
