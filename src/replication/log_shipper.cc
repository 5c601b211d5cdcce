// Copyright 2026 The LTAM Authors.

#include "replication/log_shipper.h"

#include <chrono>
#include <utility>

#include "util/thread_name.h"

namespace ltam {

namespace {

// Records per kSegmentChunk frame. Bounds both the frame size and how
// long one slice read holds the shared runtime lock.
constexpr uint32_t kMaxRecordsPerChunk = 2048;

// Idle poll cadence: how often the shipper re-checks the log for new
// durable records when the last sweep moved nothing.
constexpr std::chrono::milliseconds kPollInterval{20};

}  // namespace

LogShipper::LogShipper(AccessRuntime* runtime, std::shared_mutex* runtime_mu,
                       uint64_t start_position, SendFn send,
                       LogShipperOptions options)
    : runtime_(runtime),
      runtime_mu_(runtime_mu),
      send_(std::move(send)),
      options_(options),
      position_(start_position) {}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  if (options_.metrics != nullptr) {
    gauge_name_ = "replication.replica." +
                  std::to_string(options_.subscriber_id) + ".lag_records";
    lag_gauge_ = options_.metrics->GetGauge(gauge_name_);
  }
  started_ = true;
  thread_ = std::thread([this] { Run(); });
  NameThread(&thread_, "ltam-shipper");
}

void LogShipper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  // After the join: no sweep can touch the gauge, so a retired
  // subscriber leaves no stale lag series behind.
  if (lag_gauge_ != nullptr) {
    options_.metrics->Remove(gauge_name_);
    lag_gauge_ = nullptr;
  }
}

void LogShipper::Run() {
  while (true) {
    bool fatal = false;
    const bool moved = SweepOnce(&fatal);
    if (fatal) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    if (moved) continue;  // Drain a hot log before sleeping.
    cv_.wait_for(lock, kPollInterval, [this] { return stop_; });
    if (stop_) return;
  }
}

bool LogShipper::SweepOnce(bool* fatal) {
  bool moved = false;
  uint64_t epoch = 0;
  uint64_t durable = 0;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return moved;
    }
    Result<AccessRuntime::ReplicationSlice> slice =
        [&]() -> Result<AccessRuntime::ReplicationSlice> {
      // Shared lock: checkpoints (exclusive writers server-side) cannot
      // retire the WAL mid-read.
      std::shared_lock<std::shared_mutex> lock(*runtime_mu_);
      epoch = runtime_->replication_epoch();
      return runtime_->ReadReplicationSlice(position_, kMaxRecordsPerChunk);
    }();
    if (!slice.ok()) {
      // The stream cannot continue from this position (most likely a
      // checkpoint retired it — resync required). Tell the replica once,
      // structurally, and retire the subscription.
      send_(MessageType::kError,
            EncodeErrorResult(
                slice.status().WithContext("replication stream")));
      *fatal = true;
      return moved;
    }
    durable = slice->durable;
    if (slice->records.empty()) break;
    SegmentChunk chunk;
    chunk.epoch = epoch;
    chunk.start = position_;
    chunk.records = std::move(slice->records);
    if (!send_(MessageType::kSegmentChunk, EncodeSegmentChunk(chunk))) {
      *fatal = true;  // Connection gone.
      return moved;
    }
    position_ = slice->next;
    moved = true;
    if (slice->next >= slice->durable) break;
  }
  if (lag_gauge_ != nullptr) {
    lag_gauge_->Set(
        durable > position_ ? static_cast<int64_t>(durable - position_) : 0);
  }
  return moved;
}

}  // namespace ltam
