// Copyright 2026 The LTAM Authors.
// ltam-serve client library.
//
// Two usage styles over one blocking TCP connection:
//
//  - Synchronous: every call sends one request frame and blocks until
//    its response arrives. One outstanding request at a time; a server
//    error response surfaces as the decoded Status.
//  - Pipelined batches: SubmitBatch() buffers request frames locally,
//    Flush() writes them all, ReceiveBatchResult() reads responses in
//    submission order (the server's ingest path is FIFO per
//    connection). Keeping several frames in flight is what feeds the
//    server's ingest coalescer from a single connection.
//
// Do not interleave synchronous calls with unreceived pipelined
// submissions — the synchronous call would consume the pipelined
// responses. A ServiceClient is not thread-safe; use one per thread
// (many connections is the point of the server).

#ifndef LTAM_SERVICE_CLIENT_H_
#define LTAM_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "util/result.h"

namespace ltam {

/// Parses a TCP port: ASCII digits only, 0..65535 (0 asks a listener
/// for an ephemeral port). Anything else — empty, a sign, a suffix, or
/// an out-of-range value — is InvalidArgument, never a wrapped port.
Result<uint16_t> ParsePort(std::string_view text);

/// Parses a dialable "host:port", split at the last colon: the host must
/// be non-empty and the port must pass ParsePort and be nonzero.
/// InvalidArgument otherwise; *host and *port are set only on success.
Status ParseEndpoint(std::string_view text, std::string* host,
                     uint16_t* port);

class ServiceClient {
 public:
  /// Connects to an ltam-serve endpoint ("127.0.0.1", 7447).
  static Result<std::unique_ptr<ServiceClient>> Connect(
      const std::string& host, uint16_t port);

  /// Redirect bookkeeping (see the write-call docs below): how often
  /// this client re-dialed a primary named in a replica's refusal, and
  /// how often that re-dial itself failed (the original refusal is
  /// returned then).
  struct ClientStats {
    uint64_t redirects_followed = 0;
    uint64_t redirect_dial_failures = 0;
  };
  const ClientStats& client_stats() const { return client_stats_; }

  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // --- Synchronous calls -----------------------------------------------------

  /// Round-trip liveness check (answered on the server's I/O thread,
  /// so it succeeds even while ingestion is busy).
  Status Ping();

  /// One batch (at most kMaxWireBatchEvents events, per-subject
  /// nondecreasing time order within the batch; a single event is a
  /// one-event batch). The result carries one decision per event, the
  /// alerts the server attributed to this frame, and the durability
  /// outcome.
  ///
  /// Write calls auto-follow a replica's structured refusal: when the
  /// server answers kFailedPrecondition carrying a `[primary=host:port]`
  /// token (a demoted runtime that knows its primary), the client
  /// re-dials that endpoint once, adopts the new connection, and
  /// retries the call once. An unparseable token, a failed re-dial, or
  /// a second refusal surfaces the server's error unchanged; follows
  /// and failed dials are counted in client_stats().
  Result<WireBatchResult> ApplyBatch(Span<const AccessEvent> events);

  /// One raw position fix, resolved server-side; the result carries
  /// every alert the fix's drain returned. Auto-follows a structured
  /// replica refusal like ApplyBatch().
  Result<WireFixResult> ApplyFix(const PositionFix& fix);

  /// A query-language statement, answered over the server runtime's
  /// MovementView.
  Result<QueryResult> Query(const std::string& statement);

  /// Persists the server runtime (a no-op for in-memory servers).
  Status Checkpoint();

  /// The server runtime's own counters — byte-identical to what a local
  /// Stats() call on the server's runtime returns.
  Result<RuntimeStats> Stats();

  /// The server's telemetry registry as a structured snapshot (render
  /// it with ToPrometheusText or MetricsSummaryText). Fails with
  /// kFailedPrecondition when the server runs uninstrumented (no
  /// registry attached).
  Result<MetricsSnapshot> Metrics();

  /// Promotes a replica server to primary; returns the new replication
  /// epoch. A server started as a primary refuses (kFailedPrecondition).
  Result<uint64_t> Promote();

  /// Re-targets a replica server's upstream (the survivor-reconnect
  /// step of a failover); a server following none refuses.
  Status Repoint(const std::string& host, uint16_t port);

  // --- Raw frame surface (replication links) ---------------------------------

  /// Sends one frame verbatim, flushing any pipelined backlog first.
  /// The replica link uses this for its kReplicaHello subscription.
  Status SendRawFrame(MessageType type, uint32_t request_id,
                      const std::string& payload);

  /// Blocks until the next complete frame — server-initiated
  /// kSegmentChunk frames included. The replica link's receive loop
  /// lives here.
  Result<Frame> ReceiveRaw();

  /// Half-closes the socket from another thread so a blocked
  /// ReceiveRaw() returns ("server closed the connection"). The only
  /// member safe to call concurrently — it is how a replica link is
  /// stopped.
  void ShutdownSocket();

  // --- Pipelined batches -----------------------------------------------------

  /// Buffers an ApplyBatch frame locally and returns its request id.
  /// Nothing is written until Flush().
  Result<uint32_t> SubmitBatch(Span<const AccessEvent> events);

  /// Writes every buffered frame to the socket.
  Status Flush();

  /// One pipelined response. NOTE: responses are NOT in submission
  /// order when the server refuses a frame at an ingest quota — the
  /// refusal is generated at dispatch and overtakes accepted frames
  /// still in the coalescer — so pipelined consumers must match
  /// responses to submissions by request_id, never by position.
  struct PipelinedBatch {
    uint32_t request_id = 0;
    /// kFailedPrecondition when the server refused this frame at a
    /// quota (PollBatchResult only; `result` is empty then). OK for an
    /// accepted frame.
    Status refusal = Status::OK();
    WireBatchResult result;
  };

  /// Blocks for the next pipelined batch response. Flush() first; a
  /// server-refused frame surfaces as the decoded error Status.
  Result<PipelinedBatch> ReceiveBatchResult();

  /// Like ReceiveBatchResult, but waits at most `timeout_ms` for a
  /// complete response frame and returns nullopt if none arrives in
  /// time (timeout_ms == 0 is a non-blocking drain attempt). Lets an
  /// open-loop sender harvest in-flight responses while idling until
  /// its next scheduled arrival instead of parking in recv(). Unlike
  /// ReceiveBatchResult, an in-band kFailedPrecondition refusal is
  /// returned as a value (refusal set, request_id identifying WHICH
  /// frame was refused) so overload shows up as data, not as a dead
  /// connection; every other error frame is still a failed Result.
  Result<std::optional<PipelinedBatch>> PollBatchResult(int timeout_ms);

 private:
  explicit ServiceClient(int fd);

  /// Sends one frame immediately (flushing any pipelined backlog first,
  /// which is why sync calls must not run with unreceived submissions).
  Status SendFrame(MessageType type, uint32_t request_id,
                   const std::string& payload);

  /// Blocks until one complete frame arrives.
  Result<Frame> ReceiveFrame();

  /// Blocks for the response to `request_id`; decodes kError frames
  /// into their carried Status. Any other request id on the wire is a
  /// protocol violation (sync discipline: one outstanding request).
  Result<Frame> ReceiveResponse(uint32_t request_id,
                                MessageType expected_type);

  /// Single-shot bodies behind the redirect-following write calls.
  Result<WireBatchResult> ApplyBatchOnce(Span<const AccessEvent> events);
  Result<WireFixResult> ApplyFixOnce(const PositionFix& fix);

  /// When `refusal` is a replica refusal naming a primary, re-dials it
  /// and swaps this client onto the new connection (old socket closed,
  /// assembler reset). Returns true when the caller should retry its
  /// request once; false leaves the connection untouched so the
  /// original error can surface.
  bool FollowPrimaryRedirect(const Status& refusal);

  int fd_;
  uint32_t next_request_id_ = 1;
  std::string send_buffer_;
  FrameAssembler assembler_;
  ClientStats client_stats_;
};

}  // namespace ltam

#endif  // LTAM_SERVICE_CLIENT_H_
