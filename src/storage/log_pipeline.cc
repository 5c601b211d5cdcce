// Copyright 2026 The LTAM Authors.

#include "storage/log_pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/logging.h"

namespace ltam {

const char* SyncModeToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBatch: return "batch";
    case SyncMode::kPipelined: return "pipelined";
    case SyncMode::kInterval: return "interval";
  }
  return "unknown";
}

Result<SyncMode> ParseSyncMode(const std::string& name) {
  if (name == "batch") return SyncMode::kBatch;
  if (name == "pipelined") return SyncMode::kPipelined;
  if (name == "interval") return SyncMode::kInterval;
  return Status::InvalidArgument("unknown sync mode '" + name +
                                 "' (batch|pipelined|interval)");
}

namespace {

std::string EncodeLine(const Record& record) {
  std::string line = EncodeRecord(record);
  line += '\n';
  return line;
}

}  // namespace

ShardLog::ShardLog(WalWriter writer, uint64_t writer_bytes,
                   uint32_t segment_index, DurabilityOptions options,
                   RotateFn rotate)
    : options_(std::move(options)),
      rotate_(std::move(rotate)),
      writer_(std::move(writer)),
      segment_bytes_(writer_bytes),
      segment_index_(segment_index),
      shared_segment_index_(segment_index) {
  if (options_.metrics != nullptr) {
    sync_histogram_ = options_.metrics->GetHistogram("wal.sync");
  }
  if (options_.mode != SyncMode::kBatch) {
    thread_ = std::thread([this] { ThreadLoop(); });
  }
}

ShardLog::~ShardLog() {
  if (thread_.joinable()) {
    // The destructor runs on the owner's thread with the producer
    // quiesced, so publishing any unboundaried tail is race-free.
    PublishPending();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    thread_.join();
  }
}

void ShardLog::PublishPending() {
  if (pending_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& entry : pending_) {
      queue_.push_back(std::move(entry));
    }
  }
  pending_.clear();
  work_cv_.notify_one();
}

Status ShardLog::WriteLine(const std::string& line) {
  ++append_attempts_;
  if (options_.fault_injector) {
    LTAM_RETURN_IF_ERROR(options_.fault_injector("append", append_attempts_));
  }
  LTAM_RETURN_IF_ERROR(writer_.AppendEncoded(line));
  segment_bytes_ += line.size();
  unsynced_bytes_ += line.size();
  return Status::OK();
}

Status ShardLog::SyncNow(uint64_t covered_seq) {
  ++sync_attempts_;
  Status synced = options_.fault_injector
                      ? options_.fault_injector("sync", sync_attempts_)
                      : Status::OK();
  if (synced.ok()) {
    const uint64_t t0 = sync_histogram_ != nullptr ? MonotonicNowNs() : 0;
    synced = writer_.Sync();
    if (sync_histogram_ != nullptr) {
      sync_histogram_->Record(MonotonicNowNs() - t0);
    }
  }
  if (synced.ok()) {
    unsynced_bytes_ = 0;
    unsynced_groups_ = 0;
    // Rotate BEFORE advertising durability: a barrier waiter (e.g.
    // Checkpoint) wakes the instant durable_ advances, and it must
    // never find this thread still republishing the manifest — the
    // owner's manifest writes would race ours.
    MaybeRotate();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (synced.ok()) {
    durable_ = std::max(durable_, covered_seq);
  } else {
    ++sync_failures_;
  }
  durable_cv_.notify_all();
  return synced;
}

void ShardLog::MaybeRotate() {
  if (!rotate_ || options_.segment_max_bytes == 0 ||
      segment_bytes_ < options_.segment_max_bytes) {
    return;
  }
  // Everything in the current segment is durable (callers rotate only
  // after a successful sync), so switching files loses nothing.
  Result<WalWriter> next = rotate_(segment_index_ + 1);
  if (!next.ok()) {
    // Keep appending to the oversized segment; growth retries the
    // rotation after the next sync.
    LTAM_LOG_WARNING << "WAL segment rotation failed (staying on segment "
                     << segment_index_
                     << "): " << next.status().ToString();
    return;
  }
  writer_ = std::move(next).ValueOrDie();
  ++segment_index_;
  segment_bytes_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  shared_segment_index_ = segment_index_;
}

Result<CommitTicket> ShardLog::AppendSynchronous(const std::string& line) {
  Status written = WriteLine(line);
  if (!written.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++append_failures_;
    return written;
  }
  const uint64_t seq = appended_.load(std::memory_order_relaxed) + 1;
  appended_.store(seq, std::memory_order_relaxed);
  return CommitTicket{seq};
}

Result<CommitTicket> ShardLog::Append(const Record& record) {
  std::string line = EncodeLine(record);
  if (options_.mode == SyncMode::kBatch) return AppendSynchronous(line);
  // Per-event hot path: a producer-local buffer push, no lock, no
  // wakeup. The slice is published (and the log thread woken) once per
  // batch, at the boundary. A sticky-failed log still accepts the
  // record — the event applies either way; the loss is counted when the
  // log thread drops it.
  const uint64_t seq = appended_.load(std::memory_order_relaxed) + 1;
  appended_.store(seq, std::memory_order_relaxed);
  pending_.push_back(Entry{seq, std::move(line), /*boundary=*/false});
  return CommitTicket{seq};
}

Result<CommitTicket> ShardLog::BatchBoundary() {
  const uint64_t covered = appended_.load(std::memory_order_relaxed);
  if (options_.mode == SyncMode::kBatch) {
    LTAM_RETURN_IF_ERROR(SyncNow(covered));
    return CommitTicket{covered};
  }
  pending_.push_back(Entry{0, std::string(), /*boundary=*/true});
  PublishPending();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sticky_error_.ok()) return sticky_error_;
  }
  return CommitTicket{covered};
}

Status ShardLog::WaitDurable(uint64_t seq) {
  if (options_.mode == SyncMode::kBatch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (durable_ >= seq) return Status::OK();
    }
    return SyncNow(appended_.load(std::memory_order_relaxed));
  }
  // Barriers run in the control phase (producer quiesced), so any
  // unboundaried tail can be published race-free here — without this a
  // WaitDurable between Append and BatchBoundary would wait on records
  // the log thread cannot see.
  PublishPending();
  std::unique_lock<std::mutex> lock(mu_);
  if (durable_ >= seq) return sticky_error_;
  flush_requested_ = true;
  work_cv_.notify_one();
  durable_cv_.wait(lock, [this, seq] {
    return durable_ >= seq || !sticky_error_.ok();
  });
  if (durable_ >= seq) return Status::OK();
  return sticky_error_;
}

Status ShardLog::Flush() { return WaitDurable(appended_seq()); }

uint64_t ShardLog::appended_seq() const {
  return appended_.load(std::memory_order_relaxed);
}

uint64_t ShardLog::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

uint64_t ShardLog::append_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_failures_;
}

uint64_t ShardLog::sync_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_failures_;
}

uint32_t ShardLog::segment_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shared_segment_index_;
}

void ShardLog::ThreadLoop() {
  using Clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::milliseconds(std::max<uint32_t>(1, options_.sync_interval_ms));
  const size_t depth = std::max<size_t>(1, options_.pipeline_depth);
  auto last_sync = Clock::now();

  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (queue_.empty() && !stop_ && !flush_requested_) {
      auto woken = [this] {
        return !queue_.empty() || stop_ || flush_requested_;
      };
      if (options_.mode == SyncMode::kInterval && written_seq_ > durable_ &&
          sticky_error_.ok()) {
        work_cv_.wait_until(lock, last_sync + interval, woken);
      } else {
        work_cv_.wait(lock, woken);
      }
    }
    std::deque<Entry> chunk;
    chunk.swap(queue_);
    const bool flush = flush_requested_;
    flush_requested_ = false;
    const bool stopping = stop_;
    bool failed = !sticky_error_.ok();
    lock.unlock();

    for (Entry& entry : chunk) {
      if (entry.boundary) {
        ++unsynced_groups_;
        continue;
      }
      if (!failed) {
        Status written = WriteLine(entry.line);
        if (written.ok()) {
          written_seq_ = entry.seq;
          continue;
        }
        // First failure: freeze. Writing anything AFTER a lost record
        // would leave a hole — replay would apply a stream that never
        // happened — so the whole suffix is dropped and counted.
        failed = true;
        std::lock_guard<std::mutex> relock(mu_);
        sticky_error_ = written.WithContext("pipelined WAL append");
        ++append_failures_;
        durable_cv_.notify_all();
        continue;
      }
      std::lock_guard<std::mutex> relock(mu_);
      ++append_failures_;
    }

    bool need_sync = false;
    if (!failed && written_seq_ > durable_seq()) {
      if (flush || stopping) {
        need_sync = true;
      } else if (options_.mode == SyncMode::kPipelined) {
        bool drained;
        {
          std::lock_guard<std::mutex> relock(mu_);
          drained = queue_.empty();
        }
        need_sync = unsynced_groups_ >= depth ||
                    (options_.max_unsynced_bytes > 0 &&
                     unsynced_bytes_ >= options_.max_unsynced_bytes) ||
                    (drained && unsynced_groups_ >= 1);
      } else {  // kInterval
        need_sync = Clock::now() - last_sync >= interval;
      }
    }
    if (need_sync) {
      Status synced = SyncNow(written_seq_);
      last_sync = Clock::now();
      if (!synced.ok()) {
        failed = true;
        std::lock_guard<std::mutex> relock(mu_);
        if (sticky_error_.ok()) {
          sticky_error_ = synced.WithContext("pipelined WAL fsync");
        }
        durable_cv_.notify_all();
      }
    } else if (flush) {
      // A flush with nothing new to write still has to release waiters
      // (durable may already cover their target, or the log is failed).
      std::lock_guard<std::mutex> relock(mu_);
      durable_cv_.notify_all();
    }

    lock.lock();
    if (stopping && queue_.empty()) {
      durable_cv_.notify_all();
      return;
    }
  }
}

}  // namespace ltam
