// Copyright 2026 The LTAM Authors.

#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace ltam {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Extracts host/port from the ` [primary=host:port]` token a demoted
/// runtime appends to its write refusals (protocol v6). Strict: an
/// absent, unterminated, or malformed token returns false so the
/// caller surfaces the refusal instead of dialing garbage.
bool ParsePrimaryToken(const std::string& message, std::string* host,
                       uint16_t* port) {
  static constexpr char kToken[] = "[primary=";
  const size_t begin = message.rfind(kToken);
  if (begin == std::string::npos) return false;
  const size_t value = begin + sizeof(kToken) - 1;
  const size_t end = message.find(']', value);
  if (end == std::string::npos) return false;
  return ParseEndpoint(std::string_view(message).substr(value, end - value),
                       host, port)
      .ok();
}

}  // namespace

Result<uint16_t> ParsePort(std::string_view text) {
  uint32_t parsed = 0;
  bool valid = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9' || parsed > 65535) {
      valid = false;
      break;
    }
    parsed = parsed * 10 + static_cast<uint32_t>(c - '0');
  }
  if (!valid || parsed > 65535) {
    return Status::InvalidArgument("port '" + std::string(text) +
                                   "' is not a number in 0..65535");
  }
  return static_cast<uint16_t>(parsed);
}

Status ParseEndpoint(std::string_view text, std::string* host,
                     uint16_t* port) {
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Status::InvalidArgument("endpoint '" + std::string(text) +
                                   "' is not HOST:PORT");
  }
  LTAM_ASSIGN_OR_RETURN(uint16_t parsed, ParsePort(text.substr(colon + 1)));
  if (parsed == 0) {
    return Status::InvalidArgument("endpoint '" + std::string(text) +
                                   "' needs a nonzero port");
  }
  *host = std::string(text.substr(0, colon));
  *port = parsed;
  return Status::OK();
}

ServiceClient::ServiceClient(int fd) : fd_(fd) {}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<ServiceClient>> ServiceClient::Connect(
    const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("connect");
    ::close(fd);
    return st.WithContext("connecting to " + host + ":" +
                          std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
}

Status ServiceClient::SendFrame(MessageType type, uint32_t request_id,
                                const std::string& payload) {
  // A sync call flushes any pipelined backlog first so frames leave in
  // submission order.
  send_buffer_ += EncodeFrame(type, request_id, payload);
  return Flush();
}

Result<Frame> ServiceClient::ReceiveFrame() {
  while (true) {
    Result<std::optional<Frame>> next = assembler_.Next();
    if (!next.ok()) return next.status();
    if (next->has_value()) return std::move(**next);
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      assembler_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed the connection");
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

Result<Frame> ServiceClient::ReceiveResponse(uint32_t request_id,
                                             MessageType expected_type) {
  LTAM_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  if (frame.header.request_id != request_id) {
    return Status::Internal(
        "response for request " + std::to_string(frame.header.request_id) +
        " while waiting for " + std::to_string(request_id) +
        " (sync calls must not interleave with unreceived pipelined "
        "submissions)");
  }
  if (frame.header.type == MessageType::kError) {
    Status error;
    LTAM_RETURN_IF_ERROR(DecodeErrorResult(frame.payload, &error));
    return error;
  }
  if (frame.header.type != expected_type) {
    return Status::Internal(std::string("expected a ") +
                            MessageTypeToString(expected_type) +
                            " response, got " +
                            MessageTypeToString(frame.header.type));
  }
  return frame;
}

Status ServiceClient::Ping() {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kPing, id, ""));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kPong));
  if (!frame.payload.empty()) {
    return Status::ParseError("pong: unexpected payload");
  }
  return Status::OK();
}

Result<WireBatchResult> ServiceClient::ApplyBatchOnce(
    Span<const AccessEvent> events) {
  if (events.size() > kMaxWireBatchEvents) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(events.size()) + " events over the " +
        std::to_string(kMaxWireBatchEvents) + " per-frame wire ceiling");
  }
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kApplyBatch, id,
                                 EncodeApplyBatchRequest(events)));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kBatchResult));
  LTAM_ASSIGN_OR_RETURN(WireBatchResult result,
                        DecodeBatchResult(frame.payload));
  if (result.decisions.size() != events.size()) {
    return Status::ParseError("batch-result: decision count mismatch");
  }
  return result;
}

Result<WireBatchResult> ServiceClient::ApplyBatch(
    Span<const AccessEvent> events) {
  Result<WireBatchResult> first = ApplyBatchOnce(events);
  if (first.ok() || !FollowPrimaryRedirect(first.status())) return first;
  return ApplyBatchOnce(events);
}

Result<WireFixResult> ServiceClient::ApplyFixOnce(const PositionFix& fix) {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(
      SendFrame(MessageType::kApplyFix, id, EncodeApplyFixRequest(fix)));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kFixResult));
  return DecodeFixResult(frame.payload);
}

Result<WireFixResult> ServiceClient::ApplyFix(const PositionFix& fix) {
  Result<WireFixResult> first = ApplyFixOnce(fix);
  if (first.ok() || !FollowPrimaryRedirect(first.status())) return first;
  return ApplyFixOnce(fix);
}

bool ServiceClient::FollowPrimaryRedirect(const Status& refusal) {
  if (!refusal.IsFailedPrecondition()) return false;
  std::string host;
  uint16_t port = 0;
  if (!ParsePrimaryToken(refusal.message(), &host, &port)) return false;
  Result<std::unique_ptr<ServiceClient>> redialed = Connect(host, port);
  if (!redialed.ok()) {
    ++client_stats_.redirect_dial_failures;
    return false;
  }
  // Adopt the fresh connection. Redirects fire only from synchronous
  // write calls, so there is no pipelined backlog to preserve.
  ::close(fd_);
  fd_ = (*redialed)->fd_;
  (*redialed)->fd_ = -1;
  assembler_ = FrameAssembler();
  send_buffer_.clear();
  ++client_stats_.redirects_followed;
  return true;
}

Result<QueryResult> ServiceClient::Query(const std::string& statement) {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(
      SendFrame(MessageType::kQuery, id, EncodeQueryRequest(statement)));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kQueryResult));
  return DecodeQueryResult(frame.payload);
}

Status ServiceClient::Checkpoint() {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kCheckpoint, id, ""));
  LTAM_ASSIGN_OR_RETURN(
      Frame frame, ReceiveResponse(id, MessageType::kCheckpointResult));
  if (!frame.payload.empty()) {
    return Status::ParseError("checkpoint-result: unexpected payload");
  }
  return Status::OK();
}

Result<RuntimeStats> ServiceClient::Stats() {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kStats, id, ""));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kStatsResult));
  return DecodeStatsResult(frame.payload);
}

Result<MetricsSnapshot> ServiceClient::Metrics() {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kMetrics, id, ""));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kMetricsResult));
  return DecodeMetricsResult(frame.payload);
}

Result<uint64_t> ServiceClient::Promote() {
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(SendFrame(MessageType::kPromote, id, ""));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kPromoteResult));
  return DecodePromoteResult(frame.payload);
}

Status ServiceClient::Repoint(const std::string& host, uint16_t port) {
  RepointRequest req;
  req.host = host;
  req.port = port;
  const uint32_t id = next_request_id_++;
  LTAM_RETURN_IF_ERROR(
      SendFrame(MessageType::kRepoint, id, EncodeRepointRequest(req)));
  LTAM_ASSIGN_OR_RETURN(Frame frame,
                        ReceiveResponse(id, MessageType::kRepointResult));
  if (!frame.payload.empty()) {
    return Status::ParseError("repoint-result: unexpected payload");
  }
  return Status::OK();
}

Status ServiceClient::SendRawFrame(MessageType type, uint32_t request_id,
                                   const std::string& payload) {
  return SendFrame(type, request_id, payload);
}

Result<Frame> ServiceClient::ReceiveRaw() { return ReceiveFrame(); }

void ServiceClient::ShutdownSocket() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<uint32_t> ServiceClient::SubmitBatch(Span<const AccessEvent> events) {
  if (events.size() > kMaxWireBatchEvents) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(events.size()) + " events over the " +
        std::to_string(kMaxWireBatchEvents) + " per-frame wire ceiling");
  }
  const uint32_t id = next_request_id_++;
  send_buffer_ += EncodeFrame(MessageType::kApplyBatch, id,
                              EncodeApplyBatchRequest(events));
  return id;
}

Status ServiceClient::Flush() {
  if (send_buffer_.empty()) return Status::OK();
  Status written = WriteAll(fd_, send_buffer_);
  send_buffer_.clear();
  return written;
}

Result<ServiceClient::PipelinedBatch> ServiceClient::ReceiveBatchResult() {
  LTAM_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  if (frame.header.type == MessageType::kError) {
    Status error;
    LTAM_RETURN_IF_ERROR(DecodeErrorResult(frame.payload, &error));
    return error.WithContext("request " +
                             std::to_string(frame.header.request_id));
  }
  if (frame.header.type != MessageType::kBatchResult) {
    return Status::Internal(std::string("expected a batch-result, got ") +
                            MessageTypeToString(frame.header.type));
  }
  PipelinedBatch out;
  out.request_id = frame.header.request_id;
  LTAM_ASSIGN_OR_RETURN(out.result, DecodeBatchResult(frame.payload));
  return out;
}

Result<std::optional<ServiceClient::PipelinedBatch>>
ServiceClient::PollBatchResult(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    // Drain frames the assembler already holds before touching the
    // socket — earlier reads may have pulled several responses at once.
    Result<std::optional<Frame>> next = assembler_.Next();
    if (!next.ok()) return next.status();
    if (next->has_value()) {
      Frame frame = std::move(**next);
      if (frame.header.type == MessageType::kError) {
        Status error;
        LTAM_RETURN_IF_ERROR(DecodeErrorResult(frame.payload, &error));
        if (error.code() == StatusCode::kFailedPrecondition) {
          // A quota refusal: in-band data for a pipelined sender (it
          // identifies the refused frame by request_id), not a dead
          // connection.
          PipelinedBatch refused;
          refused.request_id = frame.header.request_id;
          refused.refusal = std::move(error);
          return std::optional<PipelinedBatch>(std::move(refused));
        }
        return error.WithContext("request " +
                                 std::to_string(frame.header.request_id));
      }
      if (frame.header.type != MessageType::kBatchResult) {
        return Status::Internal(std::string("expected a batch-result, got ") +
                                MessageTypeToString(frame.header.type));
      }
      PipelinedBatch out;
      out.request_id = frame.header.request_id;
      LTAM_ASSIGN_OR_RETURN(out.result, DecodeBatchResult(frame.payload));
      return std::optional<PipelinedBatch>(std::move(out));
    }
    const auto now = std::chrono::steady_clock::now();
    const int remaining =
        now >= deadline
            ? 0
            : static_cast<int>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count()) +
                  1;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, remaining);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (ready == 0) return std::optional<PipelinedBatch>();
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      assembler_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

}  // namespace ltam
