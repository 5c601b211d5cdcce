// Copyright 2026 The LTAM Authors.
// ltam-serve wire protocol: length-prefixed, versioned binary frames.
//
// Every message on the wire is one frame:
//
//   magic      u32le  0x4D41544C ("LTAM")
//   version    u8     kWireVersion
//   type       u8     MessageType
//   reserved   u16le  must be zero
//   request_id u32le  echoed verbatim in the response (pipelining demux)
//   length     u32le  payload byte count, <= kMaxFramePayload
//   payload    <length> bytes, encoding per MessageType
//
// Requests cover the whole AccessRuntime event/read surface — ApplyBatch,
// Apply, ApplyFix, Query (a query-language string answered over the
// MovementView), Checkpoint, Stats, Ping — and responses carry decisions,
// drained alerts, the batch durability outcome, query tables, runtime
// stats, or a structured error mapped from Status. One frame — AlertPush —
// travels server-to-client outside any request: the shutdown drain of
// alerts no response could carry.
//
// Decoding follows the storage/event_log.h discipline: every integer is
// bounds-checked, every enum value validated, every string length checked
// against the remaining payload before it is read, and a payload must be
// consumed exactly — a truncated, oversized, or corrupt frame surfaces as
// a ParseError, never as a crash, an over-read, or an id wrapped into
// nonsense (tests/service_protocol_fuzz_test.cc hammers this contract).

#ifndef LTAM_SERVICE_PROTOCOL_H_
#define LTAM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/events.h"
#include "query/query_language.h"
#include "runtime/access_runtime.h"
#include "telemetry/metrics.h"
#include "util/result.h"

namespace ltam {

/// Protocol version this build speaks. Frames with any other version are
/// rejected — that rejection is the ONLY compatibility mechanism, so any
/// payload-shape change must bump this. v1 was the PR-4 protocol; v2
/// added the durability watermark to batch results and the
/// watermark/WAL-failure fields to stats results; v3 added the per-shard
/// watermark list to stats results and the alert-push frame; v4 added
/// the replication frames (replica-hello/welcome, segment-chunk,
/// watermark-advance, promote, repoint); v5 added the metrics frames
/// (telemetry-registry scrape, structured or Prometheus text); v6 added
/// the tiered-storage fields (cold segments/bytes, dropped events,
/// compaction runs, checkpoint dirty segments) to stats results and the
/// structured primary endpoint in replica write refusals.
inline constexpr uint8_t kWireVersion = 6;

/// "LTAM" as a little-endian u32 ('L' is the first byte on the wire).
inline constexpr uint32_t kWireMagic = 0x4D41544Cu;

/// Hard ceiling on one frame's payload. Large enough for a 64k-event
/// batch or a wide query table; small enough that a corrupt length field
/// can never drive allocation.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;

/// Protocol-level ceiling on events per ApplyBatch frame (a server may
/// enforce a tighter one via RuntimeOptions::max_batch_events).
inline constexpr uint32_t kMaxWireBatchEvents = 1u << 16;

/// Frame header size on the wire.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Every message type of the protocol. Requests and responses share the
/// numbering space; responses start at 32.
enum class MessageType : uint8_t {
  // Requests.
  kPing = 1,
  kApply = 2,
  kApplyBatch = 3,
  kApplyFix = 4,
  kQuery = 5,
  kCheckpoint = 6,
  kStats = 7,
  /// A replica subscribing to the primary's log stream: carries the
  /// replica's replication epoch and per-shard resume positions.
  kReplicaHello = 8,
  /// Promote a replica server to primary (bumps + persists its
  /// replication epoch, stops its upstream link, accepts writes).
  kPromote = 9,
  /// Re-target a replica server's upstream (host:port payload) — the
  /// survivor-reconnect step of a failover.
  kRepoint = 10,
  /// Scrape the server's telemetry registry. Payload = one format
  /// byte (kMetricsFormat*). Refused with kFailedPrecondition when
  /// the server runs without a registry.
  kMetrics = 11,
  // Responses.
  kPong = 32,
  kApplyResult = 33,
  kBatchResult = 34,
  kFixResult = 35,
  kQueryResult = 36,
  kCheckpointResult = 37,
  kStatsResult = 38,
  kError = 39,
  /// Server-initiated (request_id 0): alerts the server could not attach
  /// to any response before shutting down. Payload = EncodeAlertPush.
  kAlertPush = 40,
  /// The primary's answer to kReplicaHello: its epoch + shard count.
  kReplicaWelcome = 41,
  /// Server-initiated on a subscribed connection (request_id 0): one
  /// run of committed log records for one shard.
  kSegmentChunk = 42,
  /// Server-initiated on a subscribed connection (request_id 0): the
  /// primary's per-shard durable positions (replica lag accounting).
  kWatermarkAdvance = 43,
  /// kPromote's answer: the new replication epoch.
  kPromoteResult = 44,
  kRepointResult = 45,
  /// kMetrics' answer: the snapshot, in the requested format.
  kMetricsResult = 46,
};

/// kMetrics request payload: which representation the response carries.
inline constexpr uint8_t kMetricsFormatStructured = 0;
inline constexpr uint8_t kMetricsFormatText = 1;

/// True for the request half of the numbering space.
bool IsRequestType(MessageType type);

/// Stable lower-case name ("apply-batch", "stats-result", ...).
const char* MessageTypeToString(MessageType type);

/// One decoded frame header.
struct FrameHeader {
  uint8_t version = kWireVersion;
  MessageType type = MessageType::kPing;
  uint32_t request_id = 0;
  uint32_t payload_length = 0;
};

/// One complete frame, payload owned.
struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Encodes a complete frame (header + payload).
std::string EncodeFrame(MessageType type, uint32_t request_id,
                        const std::string& payload);

/// Decodes the 16 header bytes. ParseError on bad magic, unknown
/// version, unknown type, nonzero reserved bits, or a length above
/// kMaxFramePayload. Requires `size >= kFrameHeaderBytes`.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// Incremental frame extraction for a byte stream (the read side of a
/// socket). Append raw stream bytes as they arrive; Next() yields
/// complete frames in order, each payload copied out so the caller owns
/// it. A malformed header is a sticky error — the stream can no longer
/// be framed and the connection must be dropped.
class FrameAssembler {
 public:
  /// Appends raw stream bytes. Drops the consumed prefix first once it
  /// is at least half the buffer, so each byte moves O(1) times
  /// amortized and never once per frame.
  void Append(const char* data, size_t size);

  /// Returns the next complete frame, nullopt when more bytes are
  /// needed, or ParseError once the stream is unframeable.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet returned as frames.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already returned as frames.
  Status error_;
};

// --- Request payloads --------------------------------------------------------

/// Ping / Checkpoint / Stats requests and the Pong / CheckpointResult
/// responses carry no payload; encode with EncodeFrame(type, id, "").

std::string EncodeApplyRequest(const AccessEvent& event);
Result<AccessEvent> DecodeApplyRequest(std::string_view payload);

std::string EncodeApplyBatchRequest(Span<const AccessEvent> events);
Result<std::vector<AccessEvent>> DecodeApplyBatchRequest(
    std::string_view payload);

/// O(1) shape check of an apply/apply-batch payload: validates the event
/// count against the payload size and the wire ceiling without touching
/// the events themselves, and returns that count. This is what the I/O
/// thread runs per frame — full event validation is deferred to
/// DecodeApplyEventsInto at merge time.
Result<uint32_t> PeekApplyEventCount(MessageType type,
                                     std::string_view payload);

/// Single-pass decode of an apply/apply-batch payload, appending the
/// events to *out (no intermediate vector — the server's coalescer
/// decodes each queued payload straight into its merge buffer). Strict
/// like the owning decoders: exact consumption, every event kind
/// validated.
Status DecodeApplyEventsInto(MessageType type, std::string_view payload,
                             std::vector<AccessEvent>* out);

std::string EncodeApplyFixRequest(const PositionFix& fix);
Result<PositionFix> DecodeApplyFixRequest(std::string_view payload);

std::string EncodeQueryRequest(const std::string& statement);
Result<std::string> DecodeQueryRequest(std::string_view payload);

// --- Response payloads -------------------------------------------------------

/// What one Apply/ApplyBatch produced, as seen through the wire: the
/// per-event decisions, the alerts the server attributed to this frame
/// (routed by subject out of the coalesced batch), the durability
/// outcome of the underlying AccessRuntime::ApplyBatch, and the
/// runtime's durability watermark at that moment (under a pipelined
/// server the ack arrives before the fsync — durable < applied tells
/// the client exactly how far the crash-proof prefix reaches).
struct WireBatchResult {
  std::vector<Decision> decisions;
  std::vector<Alert> alerts;
  Status durability;
  DurabilityWatermark watermark;
};

/// kApplyResult and kBatchResult share this payload encoding (an Apply
/// is a one-event batch server-side).
std::string EncodeBatchResult(const WireBatchResult& result);
Result<WireBatchResult> DecodeBatchResult(std::string_view payload);

/// kFixResult: the ApplyFix status plus the alerts the fix raised.
struct WireFixResult {
  Status status;
  std::vector<Alert> alerts;
};

std::string EncodeFixResult(const WireFixResult& result);
Result<WireFixResult> DecodeFixResult(std::string_view payload);

/// kQueryResult reuses the interpreter's tabular QueryResult.
std::string EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(std::string_view payload);

/// kStatsResult carries the runtime's own counters verbatim — the remote
/// Stats() answer is the same struct a local caller sees (since v3
/// including the per-shard watermarks).
std::string EncodeStatsResult(const RuntimeStats& stats);
Result<RuntimeStats> DecodeStatsResult(std::string_view payload);

/// kAlertPush: alerts delivered outside any request/response pair (the
/// server's shutdown drain of otherwise-stranded alerts).
std::string EncodeAlertPush(Span<const Alert> alerts);
Result<std::vector<Alert>> DecodeAlertPush(std::string_view payload);

/// kError: a Status by value (code + message). OK is not a valid error
/// payload — encoding it is a programming error, decoding it a
/// ParseError. The returned status is the decode outcome; the carried
/// error lands in *error (untouched on decode failure).
std::string EncodeErrorResult(const Status& status);
Status DecodeErrorResult(std::string_view payload, Status* error);

// --- Replication payloads (v4) -----------------------------------------------

/// Ceiling on log records per kSegmentChunk frame — bounds both the
/// shipper's batching and a corrupt count field's allocation.
inline constexpr uint32_t kMaxReplicationRecords = 1u << 14;

/// kReplicaHello: a replica announcing itself to a primary. `positions`
/// has one entry per shard — the count of log records the replica
/// already holds durably (records retired by its checkpoints included),
/// i.e. where shipping must resume.
struct ReplicaHello {
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
  std::vector<uint64_t> positions;
};

std::string EncodeReplicaHello(const ReplicaHello& hello);
Result<ReplicaHello> DecodeReplicaHello(std::string_view payload);

/// kReplicaWelcome: the primary accepting a subscription.
struct ReplicaWelcome {
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
};

std::string EncodeReplicaWelcome(const ReplicaWelcome& welcome);
Result<ReplicaWelcome> DecodeReplicaWelcome(std::string_view payload);

/// kSegmentChunk: `records.size()` consecutive committed log records of
/// one shard, starting at per-shard position `start` (each record is one
/// WAL line, newline stripped — exactly what recovery replay decodes).
/// `epoch` is the sender's replication epoch; a receiver on a higher
/// epoch rejects the chunk (the fencing rule).
struct SegmentChunk {
  uint64_t epoch = 0;
  uint32_t shard = 0;
  uint64_t start = 0;
  std::vector<std::string> records;
};

std::string EncodeSegmentChunk(const SegmentChunk& chunk);
Result<SegmentChunk> DecodeSegmentChunk(std::string_view payload);

/// kWatermarkAdvance: the primary's per-shard durable record counts.
struct WatermarkAdvance {
  uint64_t epoch = 0;
  std::vector<uint64_t> durable;
};

std::string EncodeWatermarkAdvance(const WatermarkAdvance& advance);
Result<WatermarkAdvance> DecodeWatermarkAdvance(std::string_view payload);

/// kRepoint: the new upstream endpoint for a replica server.
struct RepointRequest {
  std::string host;
  uint16_t port = 0;
};

std::string EncodeRepointRequest(const RepointRequest& repoint);
Result<RepointRequest> DecodeRepointRequest(std::string_view payload);

/// kPromote carries no request payload; kPromoteResult carries the new
/// replication epoch. kRepointResult carries no payload.
std::string EncodePromoteResult(uint64_t epoch);
Result<uint64_t> DecodePromoteResult(std::string_view payload);

// --- Metrics payloads (v5) ---------------------------------------------------

/// Ceilings on a kMetricsResult frame's element counts — a corrupt
/// count field must never drive allocation (kMaxFramePayload bounds
/// total bytes, these bound vector reserves before the bytes arrive).
inline constexpr uint32_t kMaxWireMetrics = 1u << 12;
inline constexpr uint32_t kMaxWireHistogramBuckets = 1u << 14;

/// kMetrics: the requested representation (kMetricsFormatStructured or
/// kMetricsFormatText).
std::string EncodeMetricsRequest(uint8_t format);
Result<uint8_t> DecodeMetricsRequest(std::string_view payload);

/// kMetricsResult, structured format: the registry snapshot — counters
/// and gauges as (name, value), histograms as exact parts plus sparse
/// nonzero buckets (LatencyHistogram::FromParts validates on decode,
/// so a decoded histogram is internally consistent or the frame is a
/// ParseError). Text format instead carries the Prometheus exposition
/// as the raw payload; it needs no codec beyond the frame layer.
std::string EncodeMetricsResult(const MetricsSnapshot& snapshot);
Result<MetricsSnapshot> DecodeMetricsResult(std::string_view payload);

}  // namespace ltam

#endif  // LTAM_SERVICE_PROTOCOL_H_
