// Copyright 2026 The LTAM Authors.

#include "storage/log_pipeline.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "util/thread_name.h"

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

// Pipelined sync bounds, per shard. The log thread fsyncs a shard's
// file once kPipelineDepth batch boundaries or kMaxUnsyncedBytes of
// written records are unsynced on it, and whenever its drained queue
// leaves a completed batch unsynced. The depth amortizes one fsync over
// up to four batches under sustained ingest while keeping the durable
// watermark at most four batches behind; the byte bound caps what one
// fsync must flush when batches are large. Every durable server
// perfbench and ci.sh boot runs at these values, so they are constants,
// not options.
constexpr uint64_t kPipelineDepth = 4;
constexpr uint64_t kMaxUnsyncedBytes = 1u << 20;

void AppendLine(const LoggedEvent& record, std::string* out) {
  if (record.is_tick) {
    AppendTickLine(record.tick_time, out);
  } else {
    AppendEventLine(record.event, out);
  }
}

}  // namespace

ShardLog::ShardLog(LogPipeline* pipeline, FileWriter writer)
    : pipeline_(pipeline), writer_(std::move(writer)) {}

Status ShardLog::Append(const LoggedEvent& record) {
  if (pipeline_->options_.mode == SyncMode::kBatch) {
    ++append_attempts_;
    Status written =
        pipeline_->options_.fault_injector
            ? pipeline_->options_.fault_injector("append", append_attempts_)
            : Status::OK();
    if (written.ok()) {
      pending_.lines.clear();
      AppendLine(record, &pending_.lines);
      written = writer_.Write(pending_.lines);
    }
    if (!written.ok()) {
      std::lock_guard<std::mutex> lock(pipeline_->mu_);
      ++append_failures_;
      return written;
    }
    appended_.store(appended_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    return Status::OK();
  }
  // Per-event hot path: an encode into the producer-local buffer, no
  // lock, no wakeup. The slice is published at its boundary and the log
  // thread woken once per batch. A sticky-failed shard still accepts the
  // record — the event applies either way; the loss is counted when the
  // log thread drops it.
  AppendLine(record, &pending_.lines);
  ++pending_.records;
  appended_.store(appended_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return Status::OK();
}

Status ShardLog::BatchBoundary() {
  if (pipeline_->options_.mode == SyncMode::kBatch) {
    return SyncThrough(appended_.load(std::memory_order_relaxed));
  }
  ++pending_.boundaries;
  return Publish();
}

Status ShardLog::Publish() {
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  if (!pending_.empty()) {
    if (queued_.empty()) {
      // The common case: the log thread drained the queue since the
      // last publish. Swapping hands over the records without a copy and
      // recycles the drained buffer's capacity.
      std::swap(queued_, pending_);
    } else {
      queued_.lines += pending_.lines;
      queued_.records += pending_.records;
      queued_.boundaries += pending_.boundaries;
    }
    pending_.clear();
  }
  return sticky_error_;
}

void ShardLog::WriteChunk(const Chunk& chunk) {
  unsynced_groups_ += chunk.boundaries;
  if (chunk.records == 0) return;
  if (!sticky_error_.ok()) {
    // Sticky: writing anything after a lost record would leave a hole —
    // replay would apply a stream that never happened — so the whole
    // suffix is dropped and counted.
    std::lock_guard<std::mutex> lock(pipeline_->mu_);
    append_failures_ += chunk.records;
    return;
  }
  const DurabilityOptions& options = pipeline_->options_;
  uint64_t clean_records = chunk.records;
  size_t clean_bytes = chunk.lines.size();
  Status error;
  if (options.fault_injector) {
    // Consulted once per record, as if each were its own write: a
    // failure at record i writes the clean prefix [0, i).
    size_t end = 0;
    for (uint64_t i = 0; i < chunk.records; ++i) {
      error = options.fault_injector("append", ++append_attempts_);
      if (!error.ok()) {
        clean_records = i;
        clean_bytes = end;
        break;
      }
      end = chunk.lines.find('\n', end) + 1;
    }
  } else {
    append_attempts_ += chunk.records;
  }
  if (clean_bytes > 0) {
    Status written =
        writer_.Write(std::string_view(chunk.lines.data(), clean_bytes));
    if (written.ok()) {
      // Until the first failure every drained record is written, so the
      // chunk's records follow written_seq_.
      written_seq_ += clean_records;
      unsynced_bytes_ += clean_bytes;
    } else {
      clean_records = 0;
      error = std::move(written);
    }
  }
  if (error.ok()) return;
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  sticky_error_ = error.WithContext("pipelined WAL append");
  append_failures_ += chunk.records - clean_records;
}

Status ShardLog::SyncThrough(uint64_t covered) {
  ++sync_attempts_;
  const DurabilityOptions& options = pipeline_->options_;
  Status synced = options.fault_injector
                      ? options.fault_injector("sync", sync_attempts_)
                      : Status::OK();
  if (synced.ok()) {
    Histogram* histogram = pipeline_->sync_histogram_;
    const uint64_t t0 = histogram != nullptr ? MonotonicNowNs() : 0;
    synced = writer_.Sync();
    if (histogram != nullptr) histogram->Record(MonotonicNowNs() - t0);
  }
  if (synced.ok()) {
    unsynced_bytes_ = 0;
    unsynced_groups_ = 0;
  }
  const uint64_t now = MonotonicNowNs();
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  if (synced.ok()) {
    if (covered > durable_) {
      durable_ = covered;
      pipeline_->durable_ns_ = now;
    }
    return synced;
  }
  ++sync_failures_;
  if (options.mode == SyncMode::kPipelined && sticky_error_.ok()) {
    sticky_error_ = synced.WithContext("pipelined WAL fsync");
  }
  return synced;
}

uint64_t ShardLog::appended_seq() const {
  return appended_.load(std::memory_order_relaxed);
}

uint64_t ShardLog::durable_seq() const {
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  return durable_;
}

uint64_t ShardLog::append_failures() const {
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  return append_failures_;
}

uint64_t ShardLog::sync_failures() const {
  std::lock_guard<std::mutex> lock(pipeline_->mu_);
  return sync_failures_;
}

LogPipeline::LogPipeline(std::vector<FileWriter> writers,
                         DurabilityOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    sync_histogram_ = options_.metrics->GetHistogram("wal.sync");
  }
  shards_.reserve(writers.size());
  for (FileWriter& writer : writers) {
    shards_.push_back(
        std::unique_ptr<ShardLog>(new ShardLog(this, std::move(writer))));
  }
  if (options_.mode == SyncMode::kPipelined) {
    thread_ = std::thread([this] { ThreadLoop(); });
    NameThread(&thread_, "ltam-wal");
  }
}

LogPipeline::~LogPipeline() {
  if (!thread_.joinable()) return;
  // The destructor runs on the owner's thread with the producers
  // quiesced, so publishing any unboundaried tail is race-free.
  for (const std::unique_ptr<ShardLog>& log : shards_) (void)log->Publish();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

void LogPipeline::Wake() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool published =
        std::any_of(shards_.begin(), shards_.end(),
                    [](const std::unique_ptr<ShardLog>& log) {
                      return !log->queued_.empty();
                    });
    if (!published) return;
    wake_ = true;
  }
  work_cv_.notify_one();
}

Status LogPipeline::Flush() {
  const size_t n = shards_.size();
  std::vector<uint64_t> targets(n);
  for (size_t k = 0; k < n; ++k) targets[k] = shards_[k]->appended_seq();
  if (!thread_.joinable()) {
    Status first_error;
    for (size_t k = 0; k < n; ++k) {
      if (shards_[k]->durable_seq() >= targets[k]) continue;
      Status synced = shards_[k]->SyncThrough(targets[k]);
      if (!synced.ok() && first_error.ok()) first_error = std::move(synced);
    }
    return first_error;
  }
  // Barriers run in the control phase (producers quiesced), so any
  // unboundaried tail can be published race-free here — without this a
  // Flush between Append and BatchBoundary would wait on records the
  // log thread cannot see.
  for (const std::unique_ptr<ShardLog>& log : shards_) (void)log->Publish();
  std::unique_lock<std::mutex> lock(mu_);
  auto settled = [&] {
    for (size_t k = 0; k < n; ++k) {
      const ShardLog& log = *shards_[k];
      if (log.durable_ < targets[k] && log.sticky_error_.ok()) return false;
    }
    return true;
  };
  if (!settled()) {
    flush_requested_ = true;
    work_cv_.notify_one();
    durable_cv_.wait(lock, settled);
  }
  for (const std::unique_ptr<ShardLog>& log : shards_) {
    if (!log->sticky_error_.ok()) return log->sticky_error_;
  }
  return Status::OK();
}

uint64_t LogPipeline::durable_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_ns_;
}

bool LogPipeline::SyncDue(const ShardLog& log, bool forced,
                          bool drained) const {
  // Only this thread writes durable_ and (in kPipelined) sticky_error_,
  // so reading them unlocked here is race-free.
  if (!log.sticky_error_.ok() || log.written_seq_ <= log.durable_) {
    return false;
  }
  return forced || log.unsynced_groups_ >= kPipelineDepth ||
         log.unsynced_bytes_ >= kMaxUnsyncedBytes ||
         (log.unsynced_groups_ >= 1 && drained);
}

void LogPipeline::ThreadLoop() {
  const size_t n = shards_.size();
  std::vector<ShardLog::Chunk> chunks(n);
  std::vector<char> drained(n, 0);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return wake_ || flush_requested_ || stop_; });
    wake_ = false;
    const bool stopping = stop_;
    const bool forced = flush_requested_ || stopping;
    flush_requested_ = false;
    for (size_t k = 0; k < n; ++k) {
      chunks[k].clear();
      std::swap(chunks[k], shards_[k]->queued_);
    }
    lock.unlock();
    // Write pass: one write(2) per shard that took records.
    for (size_t k = 0; k < n; ++k) shards_[k]->WriteChunk(chunks[k]);
    lock.lock();
    for (size_t k = 0; k < n; ++k) drained[k] = shards_[k]->queued_.empty();
    lock.unlock();
    // Sync pass, after every write: each due file, no lock held while it
    // syncs. A shard's durable sequence moves only once its own fsync
    // returned.
    for (size_t k = 0; k < n; ++k) {
      ShardLog& log = *shards_[k];
      if (SyncDue(log, forced, drained[k] != 0)) {
        (void)log.SyncThrough(log.written_seq_);
      }
    }
    lock.lock();
    // Every round releases barrier waiters: their shards may have become
    // durable or failed, or (a flush with nothing to write) already
    // covered their targets.
    durable_cv_.notify_all();
    if (stopping && std::all_of(shards_.begin(), shards_.end(),
                                [](const std::unique_ptr<ShardLog>& log) {
                                  return log->queued_.empty();
                                })) {
      return;
    }
  }
}

}  // namespace ltam
