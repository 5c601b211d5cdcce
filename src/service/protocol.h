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
// Requests cover the whole AccessRuntime event/read surface — ApplyBatch
// (a single event is a one-event batch), ApplyFix, Query (a
// query-language string answered over the MovementView), Checkpoint,
// Stats, Metrics, Ping — and responses carry decisions, drained alerts,
// the batch durability outcome, query tables, runtime stats, or a
// structured error mapped from Status. Every alert rides the response
// of the request whose application drained it; only the replication
// stream frames travel outside a request/response pair.
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
/// structured primary endpoint in replica write refusals; v7 retired
/// the single-event apply/apply-result frames (codes 2 and 33), the
/// alert-push frame (code 40) and the metrics format byte (a metrics
/// request carries no payload and its answer is always structured); v8
/// retired deny reason 8 (the write-ahead log's refusal) and the stats
/// result's refused-events field, and a batch result is sent only once
/// its batch is durable; v9 gave a durable runtime one log and one
/// replication position: the replica hello carries one position, the
/// segment chunk no shard, the watermark advance one durable count, and
/// the stats result no per-shard watermark list; v10 dropped the shard
/// count from the replica hello and welcome (a replica may run any shard
/// count) and retired the watermark-advance frame (code 43).
inline constexpr uint8_t kWireVersion = 10;

/// "LTAM" as a little-endian u32 ('L' is the first byte on the wire).
inline constexpr uint32_t kWireMagic = 0x4D41544Cu;

/// Hard ceiling on one frame's payload. Large enough for a 64k-event
/// batch or a wide query table; small enough that a corrupt length field
/// can never drive allocation.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;

/// Protocol-level ceiling on events per ApplyBatch frame: the one bound
/// on a remote batch (PeekApplyEventCount refuses more).
inline constexpr uint32_t kMaxWireBatchEvents = 1u << 16;

/// Frame header size on the wire.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Every message type of the protocol. Requests and responses share the
/// numbering space; responses start at 32. Retired codes (2, 33, 40,
/// 43) stay unassigned: a frame carrying one is refused at the header.
enum class MessageType : uint8_t {
  // Requests.
  kPing = 1,
  kApplyBatch = 3,
  kApplyFix = 4,
  kQuery = 5,
  kCheckpoint = 6,
  kStats = 7,
  /// A replica subscribing to the primary's log stream: carries the
  /// replica's replication epoch and resume position.
  kReplicaHello = 8,
  /// Promote a replica server to primary (bumps + persists its
  /// replication epoch, stops its upstream link, accepts writes).
  kPromote = 9,
  /// Re-target a replica server's upstream (host:port payload) — the
  /// survivor-reconnect step of a failover.
  kRepoint = 10,
  /// Scrape the server's telemetry registry. No payload. Refused with
  /// kFailedPrecondition when the server runs without a registry.
  kMetrics = 11,
  // Responses.
  kPong = 32,
  kBatchResult = 34,
  kFixResult = 35,
  kQueryResult = 36,
  kCheckpointResult = 37,
  kStatsResult = 38,
  kError = 39,
  /// The primary's answer to kReplicaHello: its epoch.
  kReplicaWelcome = 41,
  /// Server-initiated on a subscribed connection (request_id 0): one
  /// run of committed log records.
  kSegmentChunk = 42,
  /// kPromote's answer: the new replication epoch.
  kPromoteResult = 44,
  kRepointResult = 45,
  /// kMetrics' answer: the structured registry snapshot.
  kMetricsResult = 46,
};

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

/// Ping / Checkpoint / Stats / Metrics requests and the Pong /
/// CheckpointResult responses carry no payload; encode with
/// EncodeFrame(type, id, "").

std::string EncodeApplyBatchRequest(Span<const AccessEvent> events);
Result<std::vector<AccessEvent>> DecodeApplyBatchRequest(
    std::string_view payload);

/// O(1) shape check of an apply-batch payload: validates the event
/// count against the payload size and the wire ceiling without touching
/// the events themselves, and returns that count. This is what the I/O
/// thread runs per frame — full event validation is deferred to
/// DecodeApplyEventsInto at merge time.
Result<uint32_t> PeekApplyEventCount(std::string_view payload);

/// Single-pass decode of an apply-batch payload, appending the events to
/// *out (no intermediate vector — the server's coalescer decodes each
/// queued payload straight into its merge buffer). Strict like the
/// owning decoder: exact consumption, every event kind validated.
Status DecodeApplyEventsInto(std::string_view payload,
                             std::vector<AccessEvent>* out);

std::string EncodeApplyFixRequest(const PositionFix& fix);
Result<PositionFix> DecodeApplyFixRequest(std::string_view payload);

std::string EncodeQueryRequest(const std::string& statement);
Result<std::string> DecodeQueryRequest(std::string_view payload);

// --- Response payloads -------------------------------------------------------

/// What one ApplyBatch produced, as seen through the wire: the
/// per-event decisions, the alerts the server attributed to this frame
/// (routed by subject out of the coalesced batch), the durability
/// outcome of the batch (the underlying AccessRuntime::ApplyBatch's,
/// or the failure of the fsync the server waited for), and the
/// runtime's durability watermark after that wait. A durable server
/// sends the result only once the fsync covering the batch has landed,
/// so with an OK `durability` the watermark covers every event of the
/// frame; a non-OK one means the log failed and the watermark froze
/// below them (the decisions stand either way).
struct WireBatchResult {
  std::vector<Decision> decisions;
  std::vector<Alert> alerts;
  Status durability;
  DurabilityWatermark watermark;
};

/// kBatchResult's payload.
std::string EncodeBatchResult(const WireBatchResult& result);
Result<WireBatchResult> DecodeBatchResult(std::string_view payload);

/// kFixResult: the ApplyFix status plus every alert the fix's drain
/// returned (its own subject's and any that were already pending).
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
/// Stats() answer is the same struct a local caller sees.
std::string EncodeStatsResult(const RuntimeStats& stats);
Result<RuntimeStats> DecodeStatsResult(std::string_view payload);

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

/// kReplicaHello: a replica announcing itself to a primary. `position`
/// is the count of log records the replica already holds durably
/// (records retired by its checkpoints included), i.e. where shipping
/// must resume. Every shard count makes the same decisions, so the
/// replica's need not match the primary's.
struct ReplicaHello {
  uint64_t epoch = 0;
  uint64_t position = 0;
};

std::string EncodeReplicaHello(const ReplicaHello& hello);
Result<ReplicaHello> DecodeReplicaHello(std::string_view payload);

/// kReplicaWelcome: the primary accepting a subscription.
struct ReplicaWelcome {
  uint64_t epoch = 0;
};

std::string EncodeReplicaWelcome(const ReplicaWelcome& welcome);
Result<ReplicaWelcome> DecodeReplicaWelcome(std::string_view payload);

/// kSegmentChunk: `records.size()` consecutive committed log records,
/// starting at position `start` (each record is one WAL line, newline
/// stripped — exactly what recovery replay decodes). `epoch` is the
/// sender's replication epoch; a receiver on a higher epoch rejects the
/// chunk (the fencing rule).
struct SegmentChunk {
  uint64_t epoch = 0;
  uint64_t start = 0;
  std::vector<std::string> records;
};

std::string EncodeSegmentChunk(const SegmentChunk& chunk);
Result<SegmentChunk> DecodeSegmentChunk(std::string_view payload);

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

/// kMetricsResult: the registry snapshot — counters and gauges as
/// (name, value), histograms as exact parts plus sparse nonzero buckets
/// (LatencyHistogram::FromParts validates on decode, so a decoded
/// histogram is internally consistent or the frame is a ParseError).
/// Clients render text formats (ToPrometheusText) from the decoded
/// snapshot.
std::string EncodeMetricsResult(const MetricsSnapshot& snapshot);
Result<MetricsSnapshot> DecodeMetricsResult(std::string_view payload);

}  // namespace ltam

#endif  // LTAM_SERVICE_PROTOCOL_H_
