// Copyright 2026 The LTAM Authors.

#include "storage/log_pipeline.h"

#include <string_view>
#include <utility>

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

// Once this many published bytes wait for a barrier, Publish writes them
// (no fsync), so a caller that never flushes holds at most this much.
constexpr size_t kMaxUnsyncedBytes = 1u << 20;

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
}

LogPipeline::~LogPipeline() {
  // The destructor runs on the owner's thread with the producers
  // quiesced: publish the unpublished tail, write it and sync it.
  (void)Flush();
}

void LogPipeline::Append(uint32_t slot, const LoggedEvent& record) {
  // Per-event hot path: an encode into the producer's own buffer, no
  // lock. A sticky-failed log still accepts the record — the event
  // applies either way; the loss is counted when a round drops it.
  Slot& buffer = slots_[slot];
  AppendLine(record, &buffer.lines);
  ++buffer.records;
}

Status LogPipeline::Publish() {
  bool write = false;
  Status sticky;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t records = 0;
    for (size_t k = 0; k < slots_.size(); ++k) {
      Slot& slot = slots_[k];
      if (slot.records == 0) continue;
      if (queued_.lines.empty()) {
        // The common case for the first slot: a round drained the queue
        // since the last publish. Swapping hands over the records
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
    queued_.records += records;
    appended_.store(appended_.load(std::memory_order_relaxed) + records,
                    std::memory_order_relaxed);
    write = queued_.lines.size() >= kMaxUnsyncedBytes;
    sticky = sticky_error_;
  }
  if (!write) return sticky;
  std::lock_guard<std::mutex> round(round_mu_);
  WriteQueued();
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_error_;
}

Status LogPipeline::Flush() {
  (void)Publish();
  std::lock_guard<std::mutex> round(round_mu_);
  // A round that ran while this one waited for round_mu_ may have
  // covered everything: then nothing is queued or unsynced, and the
  // barrier returns without a write or an fsync.
  WriteQueued();
  bool sync = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sync = sticky_error_.ok() && written_seq_ > durable_;
  }
  if (sync) Sync();
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_error_;
}

void LogPipeline::SwapFile(FileWriter writer) {
  // After the owner's Flush nothing is queued or unsynced (a failed log
  // dropped what it could not write), so the file changes between
  // rounds with no record in flight.
  std::lock_guard<std::mutex> round(round_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  writer_ = std::move(writer);
  written_seq_ = appended_.load(std::memory_order_relaxed);
  durable_ = written_seq_;
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

void LogPipeline::WriteQueued() {
  Status sticky;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queued_.records == 0) return;
    chunk_.clear();
    std::swap(chunk_, queued_);
    sticky = sticky_error_;
  }
  if (!sticky.ok()) {
    // Sticky: writing anything after a lost record would leave a hole —
    // replay would apply a stream that never happened — so the whole
    // suffix is dropped and counted.
    std::lock_guard<std::mutex> lock(mu_);
    append_failures_ += chunk_.records;
    return;
  }
  uint64_t clean_records = chunk_.records;
  size_t clean_bytes = chunk_.lines.size();
  Status error;
  if (options_.fault_injector) {
    // Consulted once per record, as if each were its own write: a
    // failure at record i writes the clean prefix [0, i).
    size_t end = 0;
    for (uint64_t i = 0; i < chunk_.records; ++i) {
      error = options_.fault_injector("append", ++append_attempts_);
      if (!error.ok()) {
        clean_records = i;
        clean_bytes = end;
        break;
      }
      end = chunk_.lines.find('\n', end) + 1;
    }
  } else {
    append_attempts_ += chunk_.records;
  }
  if (clean_bytes > 0) {
    Status written =
        writer_.Write(std::string_view(chunk_.lines.data(), clean_bytes));
    if (!written.ok()) {
      clean_records = 0;
      error = std::move(written);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Until the first failure every queued record is written, so the
  // chunk's clean records follow written_seq_.
  written_seq_ += clean_records;
  if (error.ok()) return;
  sticky_error_ = error.WithContext("WAL append");
  append_failures_ += chunk_.records - clean_records;
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
  std::lock_guard<std::mutex> lock(mu_);
  if (synced.ok()) {
    durable_ = written_seq_;
    return;
  }
  ++sync_failures_;
  if (sticky_error_.ok()) sticky_error_ = synced.WithContext("WAL fsync");
}

}  // namespace ltam
