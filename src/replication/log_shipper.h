// Copyright 2026 The LTAM Authors.
// Primary-side log shipper: one subscription, one thread.
//
// A LogShipper is born when a kReplicaHello lands on a server
// connection. It owns the replica's replication position (seeded from
// the hello) and streams forward from it: each sweep it reads the
// committed suffix of the runtime's WAL through
// AccessRuntime::ReadReplicationSlice — under the server's SHARED
// runtime lock, so a checkpoint can never swap the WAL file out from
// under a read — and pushes the records as server-initiated
// kSegmentChunk frames (request_id 0), followed by one
// kWatermarkAdvance whenever the primary's durable position moved.
//
// Only durable records ship. The primary's (applied, durable) watermark
// is the replication position space — the same count the replica
// reports back in its next hello — so a reconnect resumes exactly at
// the last record the replica made crash-proof, never before (duplicate
// frames are dropped replica-side by the overlap-skip in
// ApplyReplicated) and never after (no holes).
//
// Every frame is stamped with the primary's current replication epoch;
// a replica that has seen a newer promotion drops the frame (the
// fencing rule — see replication/epoch.h).
//
// The shipper cannot serve a replica whose position predates the
// primary's retired floor (a checkpoint truncated the records away):
// that subscription gets one structured kError frame ("resync
// required") and the shipper parks. Seeding such a replica from a
// snapshot copy is the operator's move; the stream only carries deltas.

#ifndef LTAM_REPLICATION_LOG_SHIPPER_H_
#define LTAM_REPLICATION_LOG_SHIPPER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>

#include "runtime/access_runtime.h"
#include "service/protocol.h"
#include "telemetry/metrics.h"

namespace ltam {

struct LogShipperOptions {
  /// Telemetry (may be null). When set, the shipper maintains the gauge
  /// "replication.replica.<subscriber_id>.lag_records" — primary
  /// durable − shipped position, i.e. how many durable records this
  /// subscriber has not yet been sent — updated at the end of every
  /// sweep and unregistered when the shipper stops.
  MetricsRegistry* metrics = nullptr;
  uint64_t subscriber_id = 0;
};

/// Ships one subscriber's stream. Start() spawns the thread; Stop()
/// (idempotent, also run by the destructor) joins it. The shipper never
/// owns the socket — it emits frames through `send`, which returns
/// false once the connection is gone and thereby retires the shipper.
class LogShipper {
 public:
  /// Enqueues one server-initiated frame (request_id 0) on the
  /// subscriber's connection. Must be thread-safe; returns false when
  /// the connection is dead.
  using SendFn = std::function<bool(MessageType, const std::string&)>;

  LogShipper(AccessRuntime* runtime, std::shared_mutex* runtime_mu,
             uint64_t start_position, SendFn send,
             LogShipperOptions options = {});
  ~LogShipper();

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  void Start();
  void Stop();

  /// Total records shipped since Start.
  uint64_t records_shipped() const;

 private:
  void Run();
  /// One sweep up to the durable position; returns whether anything
  /// shipped, or false with *fatal set when the subscription cannot
  /// continue.
  bool SweepOnce(bool* fatal);

  AccessRuntime* const runtime_;
  std::shared_mutex* const runtime_mu_;
  const SendFn send_;
  const LogShipperOptions options_;

  uint64_t position_ = 0;  // Thread-only after Start.
  /// Last kWatermarkAdvance payload; empty until the first one.
  std::optional<uint64_t> sent_durable_;
  std::atomic<uint64_t> records_shipped_{0};

  /// Resolved at Start when options_.metrics is set; written by the
  /// shipper thread only, removed from the registry by Stop (after the
  /// join, so no write can race the removal).
  Gauge* lag_gauge_ = nullptr;
  std::string gauge_name_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
};

}  // namespace ltam

#endif  // LTAM_REPLICATION_LOG_SHIPPER_H_
