// Copyright 2026 The LTAM Authors.
// Replica-side upstream link: dial, subscribe, apply, repeat.
//
// A ReplicaLink turns a read-only AccessRuntime (DemoteToReplica) into
// a follower of one upstream primary, owned by the replica's
// ServiceServer (ServerOptions::replica_of). Its thread loops:
//
//   connect(host, port)
//     -> kReplicaHello{epoch, durable position}
//     <- kReplicaWelcome{epoch}   (fence-checked)
//     <- kSegmentChunk stream (request_id 0)
//
// Each chunk is applied under the EXCLUSIVE runtime lock shared with
// the replica's own server (the same lock its query/stats workers take
// shared), through AccessRuntime::ApplyReplicated — which write-ahead
// logs the records to the replica's own WAL before replaying them, so
// the replica's directory recovers exactly like a primary's. The link
// then makes the chunk durable (WaitDurable, under the shared lock), so
// its durable watermark is an honest resume position for the next hello
// and keeps up with what it applied.
//
// The replica's shard count need not match the primary's: a log record
// carries no shard, and every shard count makes the same decisions.
//
// Fencing (replication/epoch.h): any chunk whose epoch is below the
// replica's is from a superseded ex-primary — dropped, never applied.
// A higher chunk epoch is adopted (the replica lagged a promotion). A
// welcome below the local epoch parks the link in backoff: the upstream
// itself is stale.
//
// Stop() and Repoint() interrupt the blocking receive by half-closing
// the socket (the one ServiceClient member that is safe cross-thread);
// the loop then exits or redials the new target. Every disconnect
// reconnects with a freshly read position, so duplicates are bounded by
// one chunk and the overlap-skip in ApplyReplicated absorbs them. A
// failed dial or a dropped stream redials after a fixed 200 ms backoff;
// a repoint cuts the backoff short and dials the new target at once.

#ifndef LTAM_REPLICATION_REPLICA_LINK_H_
#define LTAM_REPLICATION_REPLICA_LINK_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/access_runtime.h"
#include "service/client.h"

namespace ltam {

class ReplicaLink {
 public:
  /// `runtime` must already be a replica (DemoteToReplica) and stays
  /// alive longer than the link; `runtime_mu` is the server's runtime
  /// lock (exclusive for every apply).
  ReplicaLink(AccessRuntime* runtime, std::shared_mutex* runtime_mu,
              std::string host, uint16_t port);
  ~ReplicaLink();

  ReplicaLink(const ReplicaLink&) = delete;
  ReplicaLink& operator=(const ReplicaLink&) = delete;

  void Start();
  void Stop();

  /// Re-targets the upstream (the survivor-reconnect step of a
  /// failover): drops the current stream and redials host:port.
  void Repoint(const std::string& host, uint16_t port);

  /// The last error that dropped a dial or a stream (OK when none has).
  Status last_error() const;

 private:
  void Run();
  /// One dial + subscription + stream, until it drops or stop/repoint.
  void RunOnce();
  void RecordError(Status status);
  /// Backoff sleep, cut short by Stop() or by a repoint since the last
  /// dial; false when stopping.
  bool Backoff();

  AccessRuntime* const runtime_;
  std::shared_mutex* const runtime_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string host_;
  uint16_t port_;
  uint64_t target_generation_ = 0;  // Bumped by Repoint.
  uint64_t dialed_generation_ = 0;  // The target RunOnce last dialed.
  bool stop_ = false;
  bool started_ = false;
  std::unique_ptr<ServiceClient> client_;  // Shared only for ShutdownSocket.
  Status last_error_;

  std::thread thread_;
};

}  // namespace ltam

#endif  // LTAM_REPLICATION_REPLICA_LINK_H_
