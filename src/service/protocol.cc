// Copyright 2026 The LTAM Authors.

#include "service/protocol.h"

#include <cstring>

#include "util/logging.h"

namespace ltam {

namespace {

// --- Little-endian primitives ------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v & 0xff));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  static_assert(sizeof(double) == sizeof(uint64_t), "IEEE-754 doubles");
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Reads a u32le in place (caller guarantees 4 readable bytes).
uint32_t PeekU32(const char* p) {
  const uint8_t* d = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(d[0]) | (static_cast<uint32_t>(d[1]) << 8) |
         (static_cast<uint32_t>(d[2]) << 16) |
         (static_cast<uint32_t>(d[3]) << 24);
}

/// Strict bounds-checked cursor over one payload. Every Read* checks the
/// remaining byte count before touching memory; a failed read latches
/// `ok_` false and every later read keeps failing, so decoders can chain
/// reads and check once.
class Reader {
 public:
  explicit Reader(std::string_view payload)
      : data_(reinterpret_cast<const uint8_t*>(payload.data())),
        size_(payload.size()) {}

  bool ReadU8(uint8_t* v) {
    if (!Require(1)) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU16(uint16_t* v) {
    if (!Require(2)) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (!Require(4)) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (!Require(8)) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  /// Length-prefixed string; the length is validated against the
  /// remaining payload before any byte is copied.
  bool ReadString(std::string* v) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (!Require(len)) return false;
    v->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  /// The strict-consumption check: a well-formed payload is read exactly.
  Status Finish(const char* what) const {
    if (!ok_) {
      return Status::ParseError(std::string(what) + ": truncated payload");
    }
    if (pos_ != size_) {
      return Status::ParseError(std::string(what) + ": " +
                                std::to_string(size_ - pos_) +
                                " trailing payload bytes");
    }
    return Status::OK();
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Shared sub-encodings ----------------------------------------------------

constexpr size_t kWireEventBytes = 1 + 8 + 4 + 4;

void PutEvent(std::string* out, const AccessEvent& e) {
  PutU8(out, static_cast<uint8_t>(e.kind));
  PutI64(out, e.time);
  PutU32(out, e.subject);
  PutU32(out, e.location);
}

bool ReadEvent(Reader* r, AccessEvent* e) {
  uint8_t kind = 0;
  if (!r->ReadU8(&kind) || !r->ReadI64(&e->time) ||
      !r->ReadU32(&e->subject) || !r->ReadU32(&e->location)) {
    return false;
  }
  if (kind > static_cast<uint8_t>(AccessEventKind::kObserve)) return false;
  e->kind = static_cast<AccessEventKind>(kind);
  return true;
}

void PutDecision(std::string* out, const Decision& d) {
  PutU8(out, d.granted ? 1 : 0);
  PutU32(out, d.auth);
  PutU8(out, static_cast<uint8_t>(d.reason));
}

bool ReadDecision(Reader* r, Decision* d) {
  uint8_t granted = 0, reason = 0;
  if (!r->ReadU8(&granted) || !r->ReadU32(&d->auth) || !r->ReadU8(&reason)) {
    return false;
  }
  if (granted > 1) return false;
  // 8 was the write-ahead log's refusal, retired in v8.
  if (reason == 8 ||
      reason > static_cast<uint8_t>(DenyReason::kObservationRejected)) {
    return false;
  }
  d->granted = granted == 1;
  d->reason = static_cast<DenyReason>(reason);
  return true;
}

void PutAlert(std::string* out, const Alert& a) {
  PutI64(out, a.time);
  PutU32(out, a.subject);
  PutU32(out, a.location);
  PutU8(out, static_cast<uint8_t>(a.type));
  PutString(out, a.detail);
}

bool ReadAlert(Reader* r, Alert* a) {
  uint8_t type = 0;
  if (!r->ReadI64(&a->time) || !r->ReadU32(&a->subject) ||
      !r->ReadU32(&a->location) || !r->ReadU8(&type) ||
      !r->ReadString(&a->detail)) {
    return false;
  }
  if (type > static_cast<uint8_t>(AlertType::kImpossibleMovement)) {
    return false;
  }
  a->type = static_cast<AlertType>(type);
  return true;
}

void PutStatus(std::string* out, const Status& s) {
  PutU8(out, static_cast<uint8_t>(s.code()));
  PutString(out, s.message());
}

bool ReadStatus(Reader* r, Status* s) {
  uint8_t code = 0;
  std::string message;
  if (!r->ReadU8(&code) || !r->ReadString(&message)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kParseError)) return false;
  *s = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

/// A count field that must be plausible for the bytes that remain: each
/// counted element occupies at least `min_element_bytes`, so a count the
/// payload cannot possibly hold is rejected before any allocation.
bool ReadCount(Reader* r, size_t min_element_bytes, uint32_t* count) {
  if (!r->ReadU32(count)) return false;
  return static_cast<uint64_t>(*count) * min_element_bytes <= r->remaining();
}

constexpr size_t kWireAlertMinBytes = 8 + 4 + 4 + 1 + 4;

}  // namespace

// --- Frame layer -------------------------------------------------------------

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kPing: return "ping";
    case MessageType::kApplyBatch: return "apply-batch";
    case MessageType::kApplyFix: return "apply-fix";
    case MessageType::kQuery: return "query";
    case MessageType::kCheckpoint: return "checkpoint";
    case MessageType::kStats: return "stats";
    case MessageType::kPong: return "pong";
    case MessageType::kBatchResult: return "batch-result";
    case MessageType::kFixResult: return "fix-result";
    case MessageType::kQueryResult: return "query-result";
    case MessageType::kCheckpointResult: return "checkpoint-result";
    case MessageType::kStatsResult: return "stats-result";
    case MessageType::kError: return "error";
    case MessageType::kReplicaHello: return "replica-hello";
    case MessageType::kPromote: return "promote";
    case MessageType::kRepoint: return "repoint";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kReplicaWelcome: return "replica-welcome";
    case MessageType::kSegmentChunk: return "segment-chunk";
    case MessageType::kWatermarkAdvance: return "watermark-advance";
    case MessageType::kPromoteResult: return "promote-result";
    case MessageType::kRepointResult: return "repoint-result";
    case MessageType::kMetricsResult: return "metrics-result";
  }
  return "unknown";
}

namespace {

/// Every assigned code, listed: a range check would also admit the
/// retired codes inside the response range.
bool IsKnownType(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPing:
    case MessageType::kApplyBatch:
    case MessageType::kApplyFix:
    case MessageType::kQuery:
    case MessageType::kCheckpoint:
    case MessageType::kStats:
    case MessageType::kReplicaHello:
    case MessageType::kPromote:
    case MessageType::kRepoint:
    case MessageType::kMetrics:
    case MessageType::kPong:
    case MessageType::kBatchResult:
    case MessageType::kFixResult:
    case MessageType::kQueryResult:
    case MessageType::kCheckpointResult:
    case MessageType::kStatsResult:
    case MessageType::kError:
    case MessageType::kReplicaWelcome:
    case MessageType::kSegmentChunk:
    case MessageType::kWatermarkAdvance:
    case MessageType::kPromoteResult:
    case MessageType::kRepointResult:
    case MessageType::kMetricsResult:
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeFrame(MessageType type, uint32_t request_id,
                        const std::string& payload) {
  LTAM_CHECK(payload.size() <= kMaxFramePayload)
      << "frame payload over the wire ceiling";
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, kWireMagic);
  PutU8(&out, kWireVersion);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU16(&out, 0);
  PutU32(&out, request_id);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  LTAM_CHECK(size >= kFrameHeaderBytes);
  Reader r(std::string_view(reinterpret_cast<const char*>(data),
                            kFrameHeaderBytes));
  uint32_t magic = 0, request_id = 0, length = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  r.ReadU32(&magic);
  r.ReadU8(&version);
  r.ReadU8(&type);
  r.ReadU16(&reserved);
  r.ReadU32(&request_id);
  r.ReadU32(&length);
  LTAM_CHECK(r.ok());
  if (magic != kWireMagic) {
    return Status::ParseError("frame: bad magic");
  }
  if (version != kWireVersion) {
    return Status::ParseError("frame: unsupported protocol version " +
                              std::to_string(version));
  }
  if (!IsKnownType(type)) {
    return Status::ParseError("frame: unknown message type " +
                              std::to_string(type));
  }
  if (reserved != 0) {
    return Status::ParseError("frame: nonzero reserved bits");
  }
  if (length > kMaxFramePayload) {
    return Status::ParseError("frame: payload length " +
                              std::to_string(length) + " over the " +
                              std::to_string(kMaxFramePayload) + " ceiling");
  }
  FrameHeader header;
  header.version = version;
  header.type = static_cast<MessageType>(type);
  header.request_id = request_id;
  header.payload_length = length;
  return header;
}

void FrameAssembler::Append(const char* data, size_t size) {
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

Result<std::optional<Frame>> FrameAssembler::Next() {
  if (!error_.ok()) return error_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();
  const char* head = buffer_.data() + consumed_;
  Result<FrameHeader> header =
      DecodeFrameHeader(reinterpret_cast<const uint8_t*>(head), available);
  if (!header.ok()) {
    error_ = header.status();
    return error_;
  }
  const size_t total = kFrameHeaderBytes + header->payload_length;
  if (available < total) return std::optional<Frame>();
  Frame frame;
  frame.header = *header;
  frame.payload.assign(head + kFrameHeaderBytes, header->payload_length);
  consumed_ += total;
  return std::optional<Frame>(std::move(frame));
}

// --- Requests ----------------------------------------------------------------

std::string EncodeApplyBatchRequest(Span<const AccessEvent> events) {
  LTAM_CHECK(events.size() <= kMaxWireBatchEvents)
      << "batch over the wire ceiling";
  std::string out;
  out.reserve(4 + events.size() * kWireEventBytes);
  PutU32(&out, static_cast<uint32_t>(events.size()));
  for (const AccessEvent& e : events) PutEvent(&out, e);
  return out;
}

Result<uint32_t> PeekApplyEventCount(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::ParseError("apply-batch: malformed event count");
  }
  const uint32_t count = PeekU32(payload.data());
  if (count > kMaxWireBatchEvents) {
    return Status::ParseError("apply-batch: " + std::to_string(count) +
                              " events over the " +
                              std::to_string(kMaxWireBatchEvents) +
                              " per-frame ceiling");
  }
  if (payload.size() != 4 + static_cast<size_t>(count) * kWireEventBytes) {
    return Status::ParseError("apply-batch: payload size does not match " +
                              std::to_string(count) + " events");
  }
  return count;
}

Status DecodeApplyEventsInto(std::string_view payload,
                             std::vector<AccessEvent>* out) {
  Reader r(payload);
  uint32_t count = 0;
  if (!ReadCount(&r, kWireEventBytes, &count)) {
    return Status::ParseError("apply-batch: malformed event count");
  }
  if (count > kMaxWireBatchEvents) {
    return Status::ParseError("apply-batch: " + std::to_string(count) +
                              " events over the " +
                              std::to_string(kMaxWireBatchEvents) +
                              " per-frame ceiling");
  }
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    AccessEvent e;
    if (!ReadEvent(&r, &e)) {
      return Status::ParseError("apply-batch: malformed event");
    }
    out->push_back(e);
  }
  return r.Finish("apply-batch");
}

Result<std::vector<AccessEvent>> DecodeApplyBatchRequest(
    std::string_view payload) {
  std::vector<AccessEvent> events;
  LTAM_RETURN_IF_ERROR(DecodeApplyEventsInto(payload, &events));
  return events;
}

std::string EncodeApplyFixRequest(const PositionFix& fix) {
  std::string out;
  PutI64(&out, fix.time);
  PutU32(&out, fix.subject);
  PutF64(&out, fix.position.x);
  PutF64(&out, fix.position.y);
  return out;
}

Result<PositionFix> DecodeApplyFixRequest(std::string_view payload) {
  Reader r(payload);
  PositionFix fix;
  if (!r.ReadI64(&fix.time) || !r.ReadU32(&fix.subject) ||
      !r.ReadF64(&fix.position.x) || !r.ReadF64(&fix.position.y)) {
    return Status::ParseError("apply-fix: malformed fix");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("apply-fix"));
  return fix;
}

std::string EncodeQueryRequest(const std::string& statement) {
  std::string out;
  PutString(&out, statement);
  return out;
}

Result<std::string> DecodeQueryRequest(std::string_view payload) {
  Reader r(payload);
  std::string statement;
  if (!r.ReadString(&statement)) {
    return Status::ParseError("query: malformed statement");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("query"));
  return statement;
}

// --- Responses ---------------------------------------------------------------

std::string EncodeBatchResult(const WireBatchResult& result) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(result.decisions.size()));
  for (const Decision& d : result.decisions) PutDecision(&out, d);
  PutU32(&out, static_cast<uint32_t>(result.alerts.size()));
  for (const Alert& a : result.alerts) PutAlert(&out, a);
  PutStatus(&out, result.durability);
  PutU64(&out, result.watermark.applied);
  PutU64(&out, result.watermark.durable);
  return out;
}

Result<WireBatchResult> DecodeBatchResult(std::string_view payload) {
  constexpr size_t kWireDecisionBytes = 1 + 4 + 1;
  Reader r(payload);
  WireBatchResult result;
  uint32_t decisions = 0;
  if (!ReadCount(&r, kWireDecisionBytes, &decisions)) {
    return Status::ParseError("batch-result: malformed decision count");
  }
  result.decisions.resize(decisions);
  for (Decision& d : result.decisions) {
    if (!ReadDecision(&r, &d)) {
      return Status::ParseError("batch-result: malformed decision");
    }
  }
  uint32_t alerts = 0;
  if (!ReadCount(&r, kWireAlertMinBytes, &alerts)) {
    return Status::ParseError("batch-result: malformed alert count");
  }
  result.alerts.resize(alerts);
  for (Alert& a : result.alerts) {
    if (!ReadAlert(&r, &a)) {
      return Status::ParseError("batch-result: malformed alert");
    }
  }
  if (!ReadStatus(&r, &result.durability)) {
    return Status::ParseError("batch-result: malformed durability status");
  }
  if (!r.ReadU64(&result.watermark.applied) ||
      !r.ReadU64(&result.watermark.durable) ||
      result.watermark.durable > result.watermark.applied) {
    return Status::ParseError("batch-result: malformed durability watermark");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("batch-result"));
  return result;
}

std::string EncodeFixResult(const WireFixResult& result) {
  std::string out;
  PutStatus(&out, result.status);
  PutU32(&out, static_cast<uint32_t>(result.alerts.size()));
  for (const Alert& a : result.alerts) PutAlert(&out, a);
  return out;
}

Result<WireFixResult> DecodeFixResult(std::string_view payload) {
  Reader r(payload);
  WireFixResult result;
  if (!ReadStatus(&r, &result.status)) {
    return Status::ParseError("fix-result: malformed status");
  }
  uint32_t alerts = 0;
  if (!ReadCount(&r, kWireAlertMinBytes, &alerts)) {
    return Status::ParseError("fix-result: malformed alert count");
  }
  result.alerts.resize(alerts);
  for (Alert& a : result.alerts) {
    if (!ReadAlert(&r, &a)) {
      return Status::ParseError("fix-result: malformed alert");
    }
  }
  LTAM_RETURN_IF_ERROR(r.Finish("fix-result"));
  return result;
}

std::string EncodeQueryResult(const QueryResult& result) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(result.columns.size()));
  for (const std::string& c : result.columns) PutString(&out, c);
  PutU32(&out, static_cast<uint32_t>(result.rows.size()));
  for (const std::vector<std::string>& row : result.rows) {
    LTAM_CHECK(row.size() == result.columns.size())
        << "ragged query table";
    for (const std::string& cell : row) PutString(&out, cell);
  }
  return out;
}

Result<QueryResult> DecodeQueryResult(std::string_view payload) {
  Reader r(payload);
  QueryResult result;
  uint32_t columns = 0;
  if (!ReadCount(&r, 4, &columns)) {
    return Status::ParseError("query-result: malformed column count");
  }
  result.columns.resize(columns);
  for (std::string& c : result.columns) {
    if (!r.ReadString(&c)) {
      return Status::ParseError("query-result: malformed column name");
    }
  }
  uint32_t rows = 0;
  // Each row holds `columns` length-prefixed cells (and a zero-column
  // table can hold no rows at all).
  if (!ReadCount(&r, columns * 4, &rows) || (columns == 0 && rows != 0)) {
    return Status::ParseError("query-result: malformed row count");
  }
  result.rows.resize(rows);
  for (std::vector<std::string>& row : result.rows) {
    row.resize(columns);
    for (std::string& cell : row) {
      if (!r.ReadString(&cell)) {
        return Status::ParseError("query-result: malformed cell");
      }
    }
  }
  LTAM_RETURN_IF_ERROR(r.Finish("query-result"));
  return result;
}

std::string EncodeStatsResult(const RuntimeStats& stats) {
  std::string out;
  PutU32(&out, stats.num_shards);
  PutU32(&out, stats.requested_shards);
  PutU8(&out, stats.durable ? 1 : 0);
  PutU8(&out, stats.shard_count_overridden ? 1 : 0);
  PutU64(&out, stats.epoch);
  PutU64(&out, stats.wal_events);
  PutU64(&out, stats.requests_processed);
  PutU64(&out, stats.requests_granted);
  PutU64(&out, stats.batches_applied);
  PutU64(&out, stats.events_applied);
  PutU64(&out, stats.batches_rejected);
  PutU64(&out, stats.pending_alerts);
  PutU64(&out, stats.applied_offset);
  PutU64(&out, stats.durable_offset);
  PutU64(&out, stats.wal_append_failures);
  PutU64(&out, stats.wal_sync_failures);
  // v4: replication role + promotion epoch.
  PutU8(&out, stats.replica ? 1 : 0);
  PutU64(&out, stats.replication_epoch);
  // v6: tiered storage.
  PutU64(&out, stats.cold_segments);
  PutU64(&out, stats.cold_bytes);
  PutU64(&out, stats.dropped_events);
  PutU64(&out, stats.compaction_runs);
  PutU64(&out, stats.checkpoint_dirty_segments);
  return out;
}

Result<RuntimeStats> DecodeStatsResult(std::string_view payload) {
  Reader r(payload);
  RuntimeStats stats;
  uint8_t durable = 0, overridden = 0;
  uint64_t wal_events = 0, processed = 0, granted = 0, batches = 0,
           events = 0, rejected = 0, pending = 0;
  if (!r.ReadU32(&stats.num_shards) || !r.ReadU32(&stats.requested_shards) ||
      !r.ReadU8(&durable) || !r.ReadU8(&overridden) ||
      !r.ReadU64(&stats.epoch) || !r.ReadU64(&wal_events) ||
      !r.ReadU64(&processed) || !r.ReadU64(&granted) ||
      !r.ReadU64(&batches) || !r.ReadU64(&events) ||
      !r.ReadU64(&rejected) || !r.ReadU64(&pending) ||
      !r.ReadU64(&stats.applied_offset) ||
      !r.ReadU64(&stats.durable_offset) ||
      !r.ReadU64(&stats.wal_append_failures) ||
      !r.ReadU64(&stats.wal_sync_failures) || durable > 1 ||
      overridden > 1 || stats.durable_offset > stats.applied_offset) {
    return Status::ParseError("stats-result: malformed stats");
  }
  uint8_t replica = 0;
  if (!r.ReadU8(&replica) || !r.ReadU64(&stats.replication_epoch) ||
      replica > 1) {
    return Status::ParseError("stats-result: malformed replication role");
  }
  stats.replica = replica == 1;
  if (!r.ReadU64(&stats.cold_segments) || !r.ReadU64(&stats.cold_bytes) ||
      !r.ReadU64(&stats.dropped_events) ||
      !r.ReadU64(&stats.compaction_runs) ||
      !r.ReadU64(&stats.checkpoint_dirty_segments)) {
    return Status::ParseError("stats-result: malformed tiered-storage stats");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("stats-result"));
  stats.durable = durable == 1;
  stats.shard_count_overridden = overridden == 1;
  stats.wal_events = wal_events;
  stats.requests_processed = processed;
  stats.requests_granted = granted;
  stats.batches_applied = batches;
  stats.events_applied = events;
  stats.batches_rejected = rejected;
  stats.pending_alerts = pending;
  return stats;
}

std::string EncodeErrorResult(const Status& status) {
  LTAM_CHECK(!status.ok()) << "an OK status is not an error payload";
  std::string out;
  PutStatus(&out, status);
  return out;
}

std::string EncodeReplicaHello(const ReplicaHello& hello) {
  std::string out;
  PutU64(&out, hello.epoch);
  PutU32(&out, hello.num_shards);
  PutU64(&out, hello.position);
  return out;
}

Result<ReplicaHello> DecodeReplicaHello(std::string_view payload) {
  Reader r(payload);
  ReplicaHello hello;
  if (!r.ReadU64(&hello.epoch) || !r.ReadU32(&hello.num_shards) ||
      !r.ReadU64(&hello.position)) {
    return Status::ParseError("replica-hello: truncated payload");
  }
  if (hello.num_shards == 0) {
    return Status::ParseError("replica-hello: malformed shard count");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("replica-hello"));
  return hello;
}

std::string EncodeReplicaWelcome(const ReplicaWelcome& welcome) {
  std::string out;
  PutU64(&out, welcome.epoch);
  PutU32(&out, welcome.num_shards);
  return out;
}

Result<ReplicaWelcome> DecodeReplicaWelcome(std::string_view payload) {
  Reader r(payload);
  ReplicaWelcome welcome;
  if (!r.ReadU64(&welcome.epoch) || !r.ReadU32(&welcome.num_shards) ||
      welcome.num_shards == 0) {
    return Status::ParseError("replica-welcome: malformed payload");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("replica-welcome"));
  return welcome;
}

std::string EncodeSegmentChunk(const SegmentChunk& chunk) {
  LTAM_CHECK(chunk.records.size() <= kMaxReplicationRecords)
      << "segment chunk over the record ceiling";
  std::string out;
  PutU64(&out, chunk.epoch);
  PutU64(&out, chunk.start);
  PutU32(&out, static_cast<uint32_t>(chunk.records.size()));
  for (const std::string& record : chunk.records) PutString(&out, record);
  return out;
}

Result<SegmentChunk> DecodeSegmentChunk(std::string_view payload) {
  Reader r(payload);
  SegmentChunk chunk;
  uint32_t count = 0;
  if (!r.ReadU64(&chunk.epoch) || !r.ReadU64(&chunk.start) ||
      // Each record costs at least its 4-byte length prefix.
      !ReadCount(&r, 4, &count) || count > kMaxReplicationRecords) {
    return Status::ParseError("segment-chunk: malformed record count");
  }
  chunk.records.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.ReadString(&chunk.records[i])) {
      return Status::ParseError("segment-chunk: truncated record");
    }
  }
  LTAM_RETURN_IF_ERROR(r.Finish("segment-chunk"));
  return chunk;
}

std::string EncodeWatermarkAdvance(const WatermarkAdvance& advance) {
  std::string out;
  PutU64(&out, advance.epoch);
  PutU64(&out, advance.durable);
  return out;
}

Result<WatermarkAdvance> DecodeWatermarkAdvance(std::string_view payload) {
  Reader r(payload);
  WatermarkAdvance advance;
  if (!r.ReadU64(&advance.epoch) || !r.ReadU64(&advance.durable)) {
    return Status::ParseError("watermark-advance: truncated payload");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("watermark-advance"));
  return advance;
}

std::string EncodeRepointRequest(const RepointRequest& repoint) {
  std::string out;
  PutString(&out, repoint.host);
  PutU16(&out, repoint.port);
  return out;
}

Result<RepointRequest> DecodeRepointRequest(std::string_view payload) {
  Reader r(payload);
  RepointRequest repoint;
  if (!r.ReadString(&repoint.host) || !r.ReadU16(&repoint.port) ||
      repoint.host.empty() || repoint.port == 0) {
    return Status::ParseError("repoint: malformed endpoint");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("repoint"));
  return repoint;
}

std::string EncodePromoteResult(uint64_t epoch) {
  std::string out;
  PutU64(&out, epoch);
  return out;
}

Result<uint64_t> DecodePromoteResult(std::string_view payload) {
  Reader r(payload);
  uint64_t epoch = 0;
  if (!r.ReadU64(&epoch)) {
    return Status::ParseError("promote-result: truncated payload");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("promote-result"));
  return epoch;
}

std::string EncodeMetricsResult(const MetricsSnapshot& snapshot) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    PutString(&out, name);
    PutU64(&out, value);
  }
  PutU32(&out, static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    PutString(&out, name);
    PutI64(&out, value);
  }
  PutU32(&out, static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, histogram] : snapshot.histograms) {
    PutString(&out, name);
    PutU64(&out, histogram.count());
    PutU64(&out, histogram.sum());
    PutU64(&out, histogram.min());
    PutU64(&out, histogram.max());
    const auto buckets = histogram.NonZeroBuckets();
    PutU32(&out, static_cast<uint32_t>(buckets.size()));
    for (const auto& [index, bucket_count] : buckets) {
      PutU32(&out, index);
      PutU64(&out, bucket_count);
    }
  }
  return out;
}

Result<MetricsSnapshot> DecodeMetricsResult(std::string_view payload) {
  Reader r(payload);
  MetricsSnapshot snapshot;
  uint32_t counters = 0;
  if (!ReadCount(&r, 4 + 8, &counters) || counters > kMaxWireMetrics) {
    return Status::ParseError("metrics-result: malformed counter count");
  }
  snapshot.counters.resize(counters);
  for (uint32_t i = 0; i < counters; ++i) {
    auto& [name, value] = snapshot.counters[i];
    if (!r.ReadString(&name) || !r.ReadU64(&value)) {
      return Status::ParseError("metrics-result: truncated counter");
    }
  }
  uint32_t gauges = 0;
  if (!ReadCount(&r, 4 + 8, &gauges) || gauges > kMaxWireMetrics) {
    return Status::ParseError("metrics-result: malformed gauge count");
  }
  snapshot.gauges.resize(gauges);
  for (uint32_t i = 0; i < gauges; ++i) {
    auto& [name, value] = snapshot.gauges[i];
    if (!r.ReadString(&name) || !r.ReadI64(&value)) {
      return Status::ParseError("metrics-result: truncated gauge");
    }
  }
  uint32_t histograms = 0;
  if (!ReadCount(&r, 4 + 4 * 8 + 4, &histograms) ||
      histograms > kMaxWireMetrics) {
    return Status::ParseError("metrics-result: malformed histogram count");
  }
  snapshot.histograms.reserve(histograms);
  for (uint32_t i = 0; i < histograms; ++i) {
    std::string name;
    uint64_t count = 0, sum = 0, min = 0, max = 0;
    uint32_t buckets = 0;
    if (!r.ReadString(&name) || !r.ReadU64(&count) || !r.ReadU64(&sum) ||
        !r.ReadU64(&min) || !r.ReadU64(&max) ||
        !ReadCount(&r, 4 + 8, &buckets) ||
        buckets > kMaxWireHistogramBuckets) {
      return Status::ParseError("metrics-result: truncated histogram");
    }
    std::vector<std::pair<uint32_t, uint64_t>> nonzero(buckets);
    for (uint32_t b = 0; b < buckets; ++b) {
      if (!r.ReadU32(&nonzero[b].first) || !r.ReadU64(&nonzero[b].second)) {
        return Status::ParseError("metrics-result: truncated bucket");
      }
    }
    Result<LatencyHistogram> histogram =
        LatencyHistogram::FromParts(count, sum, min, max, nonzero);
    if (!histogram.ok()) {
      return Status::ParseError("metrics-result: inconsistent histogram (" +
                                histogram.status().message() + ")");
    }
    snapshot.histograms.emplace_back(std::move(name), std::move(*histogram));
  }
  LTAM_RETURN_IF_ERROR(r.Finish("metrics-result"));
  return snapshot;
}

Status DecodeErrorResult(std::string_view payload, Status* error) {
  Reader r(payload);
  Status status;
  if (!ReadStatus(&r, &status)) {
    return Status::ParseError("error: malformed status");
  }
  LTAM_RETURN_IF_ERROR(r.Finish("error"));
  if (status.ok()) {
    return Status::ParseError("error: OK status in an error frame");
  }
  *error = std::move(status);
  return Status::OK();
}

}  // namespace ltam
