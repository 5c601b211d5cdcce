// Copyright 2026 The LTAM Authors.

#include "storage/log_pipeline.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "util/thread_name.h"

namespace ltam {

const char* SyncModeToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kPipelined: return "pipelined";
  }
  return "unknown";
}

Result<SyncMode> ParseSyncMode(const std::string& name) {
  if (name == "pipelined") return SyncMode::kPipelined;
  return Status::InvalidArgument("unknown sync mode '" + name +
                                 "' (the one mode is pipelined)");
}

namespace {

// Sync bounds. The log thread fsyncs the runtime's file once
// kPipelineDepth published groups or kMaxUnsyncedBytes of written
// records are unsynced on it, and whenever a round drains the queue
// with a group unsynced. The depth amortizes one fsync over up to four
// batches under sustained ingest while keeping the durable watermark at
// most four batches behind; the byte bound caps what one fsync must
// flush when batches are large. Every durable server
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

LogPipeline::LogPipeline(uint32_t num_slots, DurabilityOptions options)
    : options_(std::move(options)),
      slots_(num_slots),
      file_records_(num_slots, 0) {
  if (options_.metrics != nullptr) {
    sync_histogram_ = options_.metrics->GetHistogram("wal.sync");
  }
  thread_ = std::thread([this] { ThreadLoop(); });
  NameThread(&thread_, "ltam-wal");
}

LogPipeline::~LogPipeline() {
  // The destructor runs on the owner's thread with the producers
  // quiesced, so publishing any unpublished tail is race-free.
  (void)Publish();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

void LogPipeline::Append(uint32_t slot, const LoggedEvent& record) {
  // Per-event hot path: an encode into the producer's own buffer, no
  // lock, no wakeup. A sticky-failed log still accepts the record — the
  // event applies either way; the loss is counted when the log thread
  // drops it.
  Slot& buffer = slots_[slot];
  AppendLine(record, &buffer.lines);
  ++buffer.records;
}

Status LogPipeline::Publish() {
  bool published = false;
  Status sticky;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t records = 0;
    for (size_t k = 0; k < slots_.size(); ++k) {
      Slot& slot = slots_[k];
      if (slot.records == 0) continue;
      if (queued_.lines.empty()) {
        // The common case for the first slot: the log thread drained the
        // queue since the last publish. Swapping hands over the records
        // without a copy and recycles the drained buffer's capacity.
        std::swap(queued_.lines, slot.lines);
      } else {
        queued_.lines += slot.lines;
      }
      slot.lines.clear();
      records += slot.records;
      file_records_[k] += slot.records;
      slot.records = 0;
    }
    if (records > 0) {
      queued_.records += records;
      ++queued_.boundaries;
      appended_.store(appended_.load(std::memory_order_relaxed) + records,
                      std::memory_order_relaxed);
      wake_ = true;
      published = true;
    }
    sticky = sticky_error_;
  }
  if (published) work_cv_.notify_one();
  return sticky;
}

Status LogPipeline::Flush() {
  // Barriers run in the control phase (producers quiesced), so records
  // appended since the last boundary are published here as a group of
  // their own, which the round that drains it fsyncs.
  (void)Publish();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = appended_.load(std::memory_order_relaxed);
  durable_cv_.wait(lock, [&] {
    return durable_ >= target || !sticky_error_.ok();
  });
  return sticky_error_;
}

void LogPipeline::SwapFile(FileWriter writer) {
  std::unique_lock<std::mutex> lock(mu_);
  // After the owner's Flush nothing is queued, but the thread may still
  // be finishing its last round (a failed log drops records without
  // syncing); its state is only touched here once it waits for work.
  durable_cv_.wait(lock, [this] { return idle_ && queued_.empty(); });
  writer_ = std::move(writer);
  written_seq_ = appended_.load(std::memory_order_relaxed);
  durable_ = written_seq_;
  unsynced_bytes_ = 0;
  unsynced_groups_ = 0;
  sticky_error_ = Status::OK();
  file_records_.assign(file_records_.size(), 0);
}

uint64_t LogPipeline::appended_seq() const {
  return appended_.load(std::memory_order_relaxed);
}

uint64_t LogPipeline::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

uint64_t LogPipeline::append_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_failures_;
}

uint64_t LogPipeline::sync_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_failures_;
}

void LogPipeline::WriteChunk(const Chunk& chunk) {
  unsynced_groups_ += chunk.boundaries;
  if (chunk.records == 0) return;
  if (!sticky_error_.ok()) {
    // Sticky: writing anything after a lost record would leave a hole —
    // replay would apply a stream that never happened — so the whole
    // suffix is dropped and counted.
    std::lock_guard<std::mutex> lock(mu_);
    append_failures_ += chunk.records;
    return;
  }
  uint64_t clean_records = chunk.records;
  size_t clean_bytes = chunk.lines.size();
  Status error;
  if (options_.fault_injector) {
    // Consulted once per record, as if each were its own write: a
    // failure at record i writes the clean prefix [0, i).
    size_t end = 0;
    for (uint64_t i = 0; i < chunk.records; ++i) {
      error = options_.fault_injector("append", ++append_attempts_);
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
  std::lock_guard<std::mutex> lock(mu_);
  sticky_error_ = error.WithContext("WAL append");
  append_failures_ += chunk.records - clean_records;
}

bool LogPipeline::SyncDue(bool forced, bool drained) const {
  // Only this thread writes durable_ and sticky_error_ during a round,
  // so reading them unlocked here is race-free.
  if (!sticky_error_.ok() || written_seq_ <= durable_) return false;
  return forced || unsynced_groups_ >= kPipelineDepth ||
         unsynced_bytes_ >= kMaxUnsyncedBytes ||
         (unsynced_groups_ >= 1 && drained);
}

void LogPipeline::Sync() {
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
    durable_ = written_seq_;
    return;
  }
  ++sync_failures_;
  if (sticky_error_.ok()) sticky_error_ = synced.WithContext("WAL fsync");
}

void LogPipeline::ThreadLoop() {
  Chunk chunk;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    idle_ = true;
    work_cv_.wait(lock, [this] { return wake_ || stop_; });
    idle_ = false;
    wake_ = false;
    const bool stopping = stop_;
    chunk.clear();
    std::swap(chunk, queued_);
    lock.unlock();
    // One write(2) for everything published since the last round.
    WriteChunk(chunk);
    lock.lock();
    const bool drained = queued_.empty();
    lock.unlock();
    // At most one fsync, with no lock held; the durable sequence moves
    // only once it returned.
    if (SyncDue(stopping, drained)) Sync();
    lock.lock();
    // Every round releases waiters: the log may have become durable or
    // failed, and SwapFile waits for the thread to go idle.
    durable_cv_.notify_all();
    if (stopping && queued_.empty()) return;
  }
}

}  // namespace ltam
