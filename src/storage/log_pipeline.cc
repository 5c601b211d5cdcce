// Copyright 2026 The LTAM Authors.

#include "storage/log_pipeline.h"

#include <algorithm>
#include <utility>

namespace ltam {

const char* SyncModeToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBatch: return "batch";
    case SyncMode::kPipelined: return "pipelined";
  }
  return "unknown";
}

Result<SyncMode> ParseSyncMode(const std::string& name) {
  if (name == "batch") return SyncMode::kBatch;
  if (name == "pipelined") return SyncMode::kPipelined;
  return Status::InvalidArgument("unknown sync mode '" + name +
                                 "' (batch|pipelined)");
}

namespace {

// Pipelined sync bounds. The log thread fsyncs once kPipelineDepth
// batch boundaries or kMaxUnsyncedBytes of written records are
// unsynced, and whenever its queue drains with a completed batch
// pending. The depth amortizes one fsync over up to four batches under
// sustained ingest while keeping the durable watermark at most four
// batches behind; the byte bound caps what one fsync must flush when
// batches are large. Every durable server perfbench and ci.sh boot
// runs at these values, so they are constants, not options.
constexpr size_t kPipelineDepth = 4;
constexpr uint64_t kMaxUnsyncedBytes = 1u << 20;

std::string EncodeLine(const Record& record) {
  std::string line = EncodeRecord(record);
  line += '\n';
  return line;
}

}  // namespace

ShardLog::ShardLog(WalWriter writer, DurabilityOptions options)
    : options_(std::move(options)), writer_(std::move(writer)) {
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

Status ShardLog::AppendSynchronous(const std::string& line) {
  Status written = WriteLine(line);
  if (!written.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++append_failures_;
    return written;
  }
  appended_.store(appended_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return Status::OK();
}

Status ShardLog::Append(const Record& record) {
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
  return Status::OK();
}

Status ShardLog::BatchBoundary() {
  if (options_.mode == SyncMode::kBatch) {
    return SyncNow(appended_.load(std::memory_order_relaxed));
  }
  pending_.push_back(Entry{0, std::string(), /*boundary=*/true});
  PublishPending();
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_error_;
}

Status ShardLog::Flush() {
  const uint64_t seq = appended_seq();
  if (options_.mode == SyncMode::kBatch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (durable_ >= seq) return Status::OK();
    }
    return SyncNow(seq);
  }
  // Barriers run in the control phase (producer quiesced), so any
  // unboundaried tail can be published race-free here — without this a
  // Flush between Append and BatchBoundary would wait on records the
  // log thread cannot see.
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

void ShardLog::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return !queue_.empty() || stop_ || flush_requested_;
    });
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

    auto drained = [this] {
      std::lock_guard<std::mutex> relock(mu_);
      return queue_.empty();
    };
    const bool need_sync =
        !failed && written_seq_ > durable_seq() &&
        (flush || stopping || unsynced_groups_ >= kPipelineDepth ||
         unsynced_bytes_ >= kMaxUnsyncedBytes ||
         (unsynced_groups_ >= 1 && drained()));
    if (need_sync) {
      Status synced = SyncNow(written_seq_);
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
