// Copyright 2026 The LTAM Authors.

#include "replication/replica_link.h"

#include <chrono>
#include <utility>

#include "replication/epoch.h"
#include "util/thread_name.h"

namespace ltam {

namespace {

/// Backoff between failed dials and dropped streams.
constexpr auto kReconnectBackoff = std::chrono::milliseconds(200);

}  // namespace

ReplicaLink::ReplicaLink(AccessRuntime* runtime, std::shared_mutex* runtime_mu,
                         std::string host, uint16_t port)
    : runtime_(runtime),
      runtime_mu_(runtime_mu),
      host_(std::move(host)),
      port_(port) {}

ReplicaLink::~ReplicaLink() { Stop(); }

void ReplicaLink::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { Run(); });
  NameThread(&thread_, "ltam-replica");
}

void ReplicaLink::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
    if (client_ != nullptr) client_->ShutdownSocket();
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void ReplicaLink::Repoint(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  host_ = host;
  port_ = port;
  ++target_generation_;
  // Break the current stream; the loop redials the new target.
  if (client_ != nullptr) client_->ShutdownSocket();
  cv_.notify_all();
}

Status ReplicaLink::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void ReplicaLink::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return;  // Shutdown-induced breakage is not an error.
  last_error_ = std::move(status);
}

bool ReplicaLink::Backoff() {
  std::unique_lock<std::mutex> lock(mu_);
  // A repoint since the dial ends the wait: the new target is dialed at
  // once, not when the backoff runs out.
  cv_.wait_for(lock, kReconnectBackoff, [this] {
    return stop_ || target_generation_ != dialed_generation_;
  });
  return !stop_;
}

void ReplicaLink::Run() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    RunOnce();
    {
      std::lock_guard<std::mutex> lock(mu_);
      client_.reset();
      if (stop_) return;
    }
    if (!Backoff()) return;
  }
}

void ReplicaLink::RunOnce() {
  std::string host;
  uint16_t port = 0;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    host = host_;
    port = port_;
    generation = target_generation_;
    dialed_generation_ = generation;
  }

  Result<std::unique_ptr<ServiceClient>> dialed =
      ServiceClient::Connect(host, port);
  if (!dialed.ok()) {
    RecordError(dialed.status());
    return;
  }
  ServiceClient* client = dialed->get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || target_generation_ != generation) return;
    client_ = std::move(*dialed);
  }

  // Subscribe: our epoch and DURABLE position — the honest resume point
  // (an applied-but-unsynced suffix would not survive our own crash, so
  // the primary must re-ship it).
  ReplicaHello hello;
  {
    std::shared_lock<std::shared_mutex> rlock(*runtime_mu_);
    hello.epoch = runtime_->replication_epoch();
    Result<uint64_t> position = runtime_->ReplicationPosition();
    if (!position.ok()) {
      RecordError(position.status());
      return;
    }
    hello.position = *position;
  }
  Status sent = client->SendRawFrame(MessageType::kReplicaHello, 1,
                                     EncodeReplicaHello(hello));
  if (!sent.ok()) {
    RecordError(std::move(sent));
    return;
  }
  Result<Frame> first = client->ReceiveRaw();
  if (!first.ok()) {
    RecordError(first.status().WithContext("awaiting replica-welcome"));
    return;
  }
  if (first->header.type == MessageType::kError) {
    Status refused;
    if (DecodeErrorResult(first->payload, &refused).ok()) {
      RecordError(refused.WithContext("subscription refused by " + host + ":" +
                                      std::to_string(port)));
    } else {
      RecordError(Status::ParseError("malformed subscription refusal"));
    }
    return;
  }
  if (first->header.type != MessageType::kReplicaWelcome) {
    RecordError(Status::Internal(
        std::string("expected replica-welcome, got ") +
        MessageTypeToString(first->header.type)));
    return;
  }
  Result<ReplicaWelcome> welcome = DecodeReplicaWelcome(first->payload);
  if (!welcome.ok()) {
    RecordError(welcome.status());
    return;
  }
  if (welcome->epoch < hello.epoch) {
    // The upstream itself is a fenced ex-primary; park and retry (it
    // may be repointed away or restarted at the new epoch).
    RecordError(CheckStreamEpoch(hello.epoch, welcome->epoch)
                    .WithContext("upstream " + host + ":" +
                                 std::to_string(port)));
    return;
  }
  if (welcome->epoch > hello.epoch) {
    std::unique_lock<std::shared_mutex> wlock(*runtime_mu_);
    Status adopted = runtime_->AdoptReplicationEpoch(welcome->epoch);
    if (!adopted.ok()) {
      RecordError(std::move(adopted));
      return;
    }
  }
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || target_generation_ != generation) return;
    }
    Result<Frame> frame = client->ReceiveRaw();
    if (!frame.ok()) {
      RecordError(frame.status().WithContext("replication stream from " +
                                             host + ":" +
                                             std::to_string(port)));
      return;
    }
    switch (frame->header.type) {
      case MessageType::kSegmentChunk: {
        Result<SegmentChunk> chunk = DecodeSegmentChunk(frame->payload);
        if (!chunk.ok()) {
          RecordError(chunk.status());
          return;
        }
        const uint64_t local = runtime_->replication_epoch();
        if (chunk->epoch < local) {
          // The fencing rule: a stale-epoch primary's records must
          // never reach the engine.
          continue;
        }
        Status applied = [&]() -> Status {
          std::unique_lock<std::shared_mutex> wlock(*runtime_mu_);
          if (chunk->epoch > local) {
            LTAM_RETURN_IF_ERROR(runtime_->AdoptReplicationEpoch(chunk->epoch));
          }
          return runtime_->ApplyReplicated(chunk->start, chunk->records)
              .status();
        }();
        if (applied.ok()) {
          // The chunk's durability barrier, under the shared lock so
          // queries keep running: the durable position is this
          // replica's resume point and all it ships onward.
          std::shared_lock<std::shared_mutex> rlock(*runtime_mu_);
          applied = runtime_->WaitDurable();
        }
        if (!applied.ok()) {
          // A hole, a refusal or a failed log: drop the stream and
          // re-hello — the fresh position makes the primary re-ship
          // what we need.
          RecordError(std::move(applied));
          return;
        }
        break;
      }
      case MessageType::kError: {
        Status pushed;
        if (DecodeErrorResult(frame->payload, &pushed).ok()) {
          RecordError(pushed.WithContext("pushed by upstream"));
        } else {
          RecordError(Status::ParseError("malformed upstream error"));
        }
        return;
      }
      default:
        break;  // Future stream frames: ignore, don't drop the link.
    }
  }
}

}  // namespace ltam
