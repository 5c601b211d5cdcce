// Copyright 2026 The LTAM Authors.

#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "query/query_language.h"
#include "replication/epoch.h"
#include "replication/log_shipper.h"
#include "replication/replica_link.h"
#include "service/client.h"
#include "service/protocol.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_name.h"

namespace ltam {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Read worker pool size (Query/Stats/Metrics concurrency).
constexpr uint32_t kReadWorkers = 2;

/// Ceiling on events merged into one coalesced ApplyBatch. A round
/// always takes at least one frame, so a single frame at the wire
/// maximum still applies.
constexpr size_t kMaxCoalescedEvents = 8192;

/// Read-queue backpressure: Query/Stats/Metrics frames beyond this many
/// queued are refused with kFailedPrecondition.
constexpr size_t kMaxQueuedReads = 4096;

/// A connection whose unread response backlog exceeds this many bytes
/// (a client writing requests but never reading responses) is dropped.
constexpr size_t kMaxConnectionBacklogBytes = 64u << 20;

/// listen(2) backlog.
constexpr int kListenBacklog = 64;

/// One accepted connection. The I/O thread has exclusive use of the
/// socket's read side, the frame assembler, and the epoll interest — so
/// it is the connection's only ingest producer. Any thread may append
/// (or directly send) response bytes under out_mu.
struct Connection {
  Connection(int fd_in, uint64_t id_in) : fd(fd_in), id(id_in) {}
  ~Connection() {
    if (!fd_closed) ::close(fd);
  }

  const int fd;
  const uint64_t id;  // Unique forever (keys the ingest FIFOs safely
                      // across address reuse).

  // I/O-thread-only state.
  FrameAssembler assembler;

  /// This connection's share of the global ingest quota, in queue
  /// units: charged at dispatch, released when a round picks the frame
  /// up.
  size_t queued_units = 0;

  /// True once the connection is torn down; set under out_mu, readable
  /// without it. Responders drop their bytes instead of touching a
  /// closed (possibly reused) fd.
  std::atomic<bool> dead{false};

  /// Dedups attention signals to the I/O thread.
  std::atomic<bool> attention_pending{false};

  std::mutex out_mu;
  std::string out;                 // Unsent response bytes.
  bool write_armed = false;        // EPOLLOUT currently registered.
  bool close_after_flush = false;  // Drop once out drains.
  bool io_failed = false;          // Hard send error or backlog overflow.
  bool fd_closed = false;          // fd already closed by the I/O thread.
};

using ConnectionPtr = std::shared_ptr<Connection>;

bool IsBarrier(MessageType type) {
  return type == MessageType::kApplyFix || type == MessageType::kCheckpoint;
}

/// One ingest frame queued for a round. ApplyBatch frames carry their
/// undecoded payload — the events are decoded exactly once, at merge
/// time.
struct IngestJob {
  ConnectionPtr conn;
  uint32_t request_id = 0;
  MessageType type = MessageType::kApplyBatch;
  std::string payload;      // kApplyBatch payload.
  uint32_t event_count = 0; // Validated by PeekApplyEventCount.
  PositionFix fix;          // kApplyFix.
  size_t units = 0;         // Quota units charged for this frame.
  // Telemetry stamps (0 when the server runs uninstrumented):
  uint64_t recv_ns = 0;     // Dispatch saw the complete frame.
  uint64_t pickup_ns = 0;   // A round merged it into a group.
};

/// One frame bound for the read pool.
struct ReadJob {
  ConnectionPtr conn;
  uint32_t request_id = 0;
  MessageType type = MessageType::kQuery;
  std::string statement;  // kQuery.
};

}  // namespace

class ServiceServer::Impl {
 public:
  Impl(AccessRuntime* runtime, ServerOptions options)
      : runtime_(runtime), options_(options) {
    if (options_.metrics != nullptr) {
      MetricsRegistry* m = options_.metrics;
      h_queue_wait_ = m->GetHistogram("ingest.queue_wait");
      h_decode_ = m->GetHistogram("ingest.decode");
      h_apply_ = m->GetHistogram("ingest.apply");
      h_fsync_wait_ = m->GetHistogram("ingest.fsync_wait");
      h_write_ = m->GetHistogram("ingest.write");
      h_e2e_ = m->GetHistogram("ingest.e2e");
      h_query_ = m->GetHistogram("query.run");
      c_frames_ = m->GetCounter("ingest.frames");
      c_events_ = m->GetCounter("ingest.events");
      c_quota_refusals_ = m->GetCounter("ingest.quota_refusals");
      c_trace_emitted_ = m->GetCounter("trace.emitted");
      c_trace_suppressed_ = m->GetCounter("trace.suppressed");
    }
  }

  bool instrumented() const { return options_.metrics != nullptr; }

  ~Impl() { Stop(); }

  Status Start() {
    if (started_) return Status::FailedPrecondition("server already started");

    if (!options_.replica_of.empty()) {
      std::string host;
      uint16_t port = 0;
      LTAM_RETURN_IF_ERROR(ParseEndpoint(options_.replica_of, &host, &port));
      LTAM_RETURN_IF_ERROR(runtime_->DemoteToReplica());
      runtime_->SetPrimaryRedirect(host + ":" + std::to_string(port));
      link_ = std::make_unique<ReplicaLink>(runtime_, &runtime_mu_, host, port);
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      CloseListen();
      return Status::InvalidArgument("unparseable listen host '" +
                                     options_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status st = Errno("bind");
      CloseListen();
      return st;
    }
    if (::listen(listen_fd_, kListenBacklog) != 0) {
      Status st = Errno("listen");
      CloseListen();
      return st;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      Status st = Errno("getsockname");
      CloseListen();
      return st;
    }
    bound_port_ = ntohs(addr.sin_port);
    if (!SetNonBlocking(listen_fd_)) {
      Status st = Errno("fcntl(listen)");
      CloseListen();
      return st;
    }

    epoll_fd_ = ::epoll_create1(0);
    event_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epoll_fd_ < 0 || event_fd_ < 0) {
      Status st = Errno(epoll_fd_ < 0 ? "epoll_create1" : "eventfd");
      CloseLoopFds();
      CloseListen();
      return st;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = event_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

    // The one interpreter every read worker shares: its referents (the
    // runtime's stores and MovementView) are stable for the runtime's
    // lifetime, and workers only run it under the shared runtime lock.
    interpreter_ = std::make_unique<QueryInterpreter>(
        &runtime_->query(), &runtime_->graph(), &runtime_->profiles(),
        &runtime_->movements(), &runtime_->auth_db());

    // Before the I/O loop runs, so a kPromote always finds the link.
    if (link_ != nullptr) link_->Start();
    stopping_ = false;
    started_ = true;
    io_thread_ = std::thread([this] { IoLoopRun(); });
    NameThread(&io_thread_, "ltam-io");
    read_threads_.reserve(kReadWorkers);
    for (uint32_t i = 0; i < kReadWorkers; ++i) {
      read_threads_.emplace_back([this] { ReadLoop(); });
      NameThread(&read_threads_.back(), "ltam-read");
    }
    return Status::OK();
  }

  void Stop() {
    if (!started_) return;
    // Phase 1: stop the I/O loop. Connections stay open — queued frames
    // still owe responses.
    stopping_ = true;
    SignalLoop();
    io_thread_.join();
    // The loop is gone, so no promote, repoint or subscription can run:
    // retire the upstream link (no replicated record lands once Stop()
    // returns), then the log shippers, before their connections close.
    RetireLink();
    StopAllShippers();
    // Phase 2: this thread now owns the ingest FIFOs; its rounds answer
    // every frame still queued.
    while (!ingest_.empty()) RoundOnce();
    // Phase 3: read workers drain the remaining Query/Stats jobs.
    {
      std::lock_guard<std::mutex> lock(reads_mu_);
      reads_cv_.notify_all();
    }
    for (std::thread& t : read_threads_) t.join();
    read_threads_.clear();
    // Phase 4: best-effort blocking flush, then teardown.
    FinalFlush();
    connections_.clear();
    attention_.clear();
    CloseLoopFds();
    CloseListen();
    read_queue_.clear();
    queued_units_ = 0;
    started_ = false;
  }

  uint16_t bound_port() const { return bound_port_; }

  Status upstream_error() const {
    std::lock_guard<std::mutex> lock(link_mu_);
    return link_ == nullptr ? Status::OK() : link_->last_error();
  }

  CoalescerStats coalescer_stats() const {
    std::lock_guard<std::mutex> lock(coalescer_stats_mu_);
    return coalescer_stats_;
  }

 private:
  void CloseListen() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

  void CloseLoopFds() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    epoll_fd_ = event_fd_ = -1;
  }

  void SignalLoop() {
    uint64_t one = 1;
    ssize_t ignored = ::write(event_fd_, &one, sizeof(one));
    (void)ignored;
  }

  /// Queues `conn` for the I/O thread's attention (output to arm, or a
  /// failure to reap) and wakes the loop. Deduped per connection.
  void SignalAttention(const ConnectionPtr& conn) {
    if (conn->attention_pending.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(attention_mu_);
      attention_.push_back(conn);
    }
    SignalLoop();
  }

  // --- I/O loop --------------------------------------------------------------

  /// The epoll loop, and the ingest path's one thread: after each pass
  /// it runs one round (RoundOnce). While frames remain queued it polls
  /// instead of sleeping, so reads interleave with the rounds that
  /// drain them and one pipelining client cannot starve another.
  void IoLoopRun() {
    epoll_event events[64];
    while (!stopping_) {
      const int timeout_ms = ingest_.empty() ? 200 : 0;
      int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        LTAM_LOG_ERROR << "server epoll_wait failed: " << std::strerror(errno);
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == event_fd_) {
          DrainEventFd();
          HandleAttention();
          continue;
        }
        if (fd == listen_fd_) {
          AcceptPending();
          continue;
        }
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;  // Dropped this batch.
        ConnectionPtr conn = it->second;
        bool drop = false;
        {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          if (conn->io_failed ||
              conn->out.size() > kMaxConnectionBacklogBytes) {
            drop = true;
          }
        }
        if (!drop && (ev & (EPOLLERR | EPOLLHUP))) drop = true;
        if (!drop && (ev & EPOLLIN)) drop = !ReadFrom(conn);
        if (!drop && (ev & EPOLLOUT)) drop = !FlushTo(conn);
        if (drop) Drop(conn);
      }
      RoundOnce();
    }
    // Leave connections intact: Stop() still owes them queued responses
    // and the final flush.
  }

  void DrainEventFd() {
    uint64_t count = 0;
    while (::read(event_fd_, &count, sizeof(count)) > 0) {
    }
  }

  void HandleAttention() {
    std::vector<ConnectionPtr> attention;
    {
      std::lock_guard<std::mutex> lock(attention_mu_);
      attention.swap(attention_);
    }
    for (const ConnectionPtr& conn : attention) {
      conn->attention_pending.store(false, std::memory_order_release);
      if (conn->dead.load(std::memory_order_acquire)) continue;
      bool drop = false;
      bool arm = false;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->io_failed ||
            conn->out.size() > kMaxConnectionBacklogBytes) {
          drop = true;
        } else if (!conn->out.empty() && !conn->write_armed) {
          conn->write_armed = true;
          arm = true;
        } else if (conn->out.empty() && conn->close_after_flush) {
          drop = true;
        }
      }
      if (drop) {
        Drop(conn);
      } else if (arm) {
        UpdateInterest(conn, /*want_read=*/true, /*want_write=*/true);
      }
    }
  }

  void UpdateInterest(const ConnectionPtr& conn, bool want_read,
                      bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  /// Tears a connection down: marks it dead (responders drop their
  /// bytes), then closes the fd. The dead store happens under out_mu so
  /// no responder can be mid-send on the fd when it closes.
  void Drop(const ConnectionPtr& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->dead.store(true, std::memory_order_release);
      conn->out.clear();
      if (!conn->fd_closed) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        ::close(conn->fd);
        conn->fd_closed = true;
      }
    }
    connections_.erase(conn->fd);
    StopShipper(conn->id);  // No-op for the non-subscribed majority.
  }

  void AcceptPending() {
    while (!stopping_) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      if (!SetNonBlocking(fd)) {
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      connections_.emplace(
          fd, std::make_shared<Connection>(fd, next_conn_id_++));
    }
  }

  /// Reads what the socket has; false when the connection is done.
  bool ReadFrom(const ConnectionPtr& conn) {
    char buf[64 * 1024];
    while (true) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->assembler.Append(buf, static_cast<size_t>(n));
        if (!DrainFrames(conn)) return false;
        {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          if (conn->close_after_flush) return true;  // Stop reading.
        }
        // A partial read means the socket buffer is drained — skip the
        // recv that would only return EAGAIN.
        if (static_cast<size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n == 0) return false;  // Peer closed.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Extracts complete frames and dispatches them; false to drop the
  /// connection now.
  bool DrainFrames(const ConnectionPtr& conn) {
    while (true) {
      Result<std::optional<Frame>> next = conn->assembler.Next();
      if (!next.ok()) {
        // The stream can no longer be framed: send one final error
        // (request id 0 — no frame to attribute it to) and close once
        // it flushes.
        Respond(conn, MessageType::kError, 0,
                EncodeErrorResult(next.status()));
        bool drop_now = false;
        {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          conn->close_after_flush = true;
          if (conn->out.empty()) {
            drop_now = true;  // The error already went out.
          } else if (!conn->write_armed) {
            conn->write_armed = true;
          }
        }
        if (!drop_now) {
          UpdateInterest(conn, /*want_read=*/false, /*want_write=*/true);
        }
        return !drop_now;
      }
      if (!next->has_value()) return true;
      Dispatch(conn, std::move(**next));
    }
  }

  void Dispatch(const ConnectionPtr& conn, Frame frame) {
    const uint32_t id = frame.header.request_id;
    const MessageType type = frame.header.type;
    switch (type) {
      case MessageType::kPing:
        // No runtime state involved: answered inline on the I/O thread.
        Respond(conn, MessageType::kPong, id, "");
        return;
      case MessageType::kApplyBatch: {
        // O(1) shape check only — the events are decoded once, at merge
        // time, straight from this payload.
        Result<uint32_t> count = PeekApplyEventCount(frame.payload);
        if (!count.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(count.status()));
          return;
        }
        IngestJob job;
        job.conn = conn;
        job.request_id = id;
        job.event_count = *count;
        job.units = std::max<size_t>(1, *count);
        if (instrumented()) job.recv_ns = MonotonicNowNs();
        job.payload = std::move(frame.payload);
        EnqueueIngest(std::move(job));
        return;
      }
      case MessageType::kApplyFix: {
        Result<PositionFix> fix = DecodeApplyFixRequest(frame.payload);
        if (!fix.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(fix.status()));
          return;
        }
        IngestJob job;
        job.conn = conn;
        job.request_id = id;
        job.type = MessageType::kApplyFix;
        job.fix = *fix;
        job.units = 1;
        EnqueueIngest(std::move(job));
        return;
      }
      case MessageType::kCheckpoint: {
        if (!frame.payload.empty()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(Status::ParseError(
                      "checkpoint: unexpected payload")));
          return;
        }
        IngestJob job;
        job.conn = conn;
        job.request_id = id;
        job.type = MessageType::kCheckpoint;
        job.units = 1;
        EnqueueIngest(std::move(job));
        return;
      }
      case MessageType::kQuery: {
        Result<std::string> statement = DecodeQueryRequest(frame.payload);
        if (!statement.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(statement.status()));
          return;
        }
        ReadJob job;
        job.conn = conn;
        job.request_id = id;
        job.type = MessageType::kQuery;
        job.statement = std::move(*statement);
        EnqueueRead(std::move(job));
        return;
      }
      case MessageType::kStats: {
        if (!frame.payload.empty()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(
                      Status::ParseError("stats: unexpected payload")));
          return;
        }
        ReadJob job;
        job.conn = conn;
        job.request_id = id;
        job.type = MessageType::kStats;
        EnqueueRead(std::move(job));
        return;
      }
      case MessageType::kMetrics: {
        if (!frame.payload.empty()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(
                      Status::ParseError("metrics: unexpected payload")));
          return;
        }
        if (!instrumented()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(Status::FailedPrecondition(
                      "this server runs without a telemetry registry "
                      "(ServerOptions::metrics unset)")));
          return;
        }
        ReadJob job;
        job.conn = conn;
        job.request_id = id;
        job.type = MessageType::kMetrics;
        EnqueueRead(std::move(job));
        return;
      }
      case MessageType::kReplicaHello: {
        Result<ReplicaHello> hello = DecodeReplicaHello(frame.payload);
        if (!hello.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(hello.status()));
          return;
        }
        uint64_t local_epoch = 0;
        Status accepted = ValidateHello(*hello, &local_epoch);
        if (!accepted.ok()) {
          Respond(conn, MessageType::kError, id, EncodeErrorResult(accepted));
          return;
        }
        // Welcome FIRST (frames on one connection stay ordered), then
        // the shipper starts pushing chunks behind it.
        ReplicaWelcome welcome;
        welcome.epoch = local_epoch;
        Respond(conn, MessageType::kReplicaWelcome, id,
                EncodeReplicaWelcome(welcome));
        StartShipper(conn, hello->position);
        return;
      }
      case MessageType::kPromote: {
        if (!frame.payload.empty()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(
                      Status::ParseError("promote: unexpected payload")));
          return;
        }
        Result<uint64_t> epoch = Promote();
        if (!epoch.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(epoch.status()));
          return;
        }
        Respond(conn, MessageType::kPromoteResult, id,
                EncodePromoteResult(*epoch));
        return;
      }
      case MessageType::kRepoint: {
        Result<RepointRequest> repoint = DecodeRepointRequest(frame.payload);
        if (!repoint.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(repoint.status()));
          return;
        }
        Status repointed = Repoint(repoint->host, repoint->port);
        if (!repointed.ok()) {
          Respond(conn, MessageType::kError, id,
                  EncodeErrorResult(repointed));
          return;
        }
        Respond(conn, MessageType::kRepointResult, id, "");
        return;
      }
      default:
        Respond(conn, MessageType::kError, id,
                EncodeErrorResult(Status::InvalidArgument(
                    std::string("server received a response frame (") +
                    MessageTypeToString(type) + ")")));
        return;
    }
  }

  // --- Replica role ----------------------------------------------------------

  /// kPromote: retires the link, then durably bumps the epoch — from
  /// then on every frame the old primary ships is stale.
  Result<uint64_t> Promote() {
    if (options_.replica_of.empty()) {
      return Status::FailedPrecondition(
          "this server was not started as a replica (replica_of unset)");
    }
    RetireLink();
    std::unique_lock<std::shared_mutex> lock(runtime_mu_);
    Result<uint64_t> epoch = runtime_->Promote();
    if (epoch.ok()) runtime_->SetPrimaryRedirect("");
    return epoch;
  }

  /// kRepoint: re-aims the link, and the refusals' primary hint with it.
  Status Repoint(const std::string& host, uint16_t port) {
    {
      std::lock_guard<std::mutex> lock(link_mu_);
      if (link_ == nullptr) {
        return Status::FailedPrecondition(
            "not following an upstream (already promoted?)");
      }
      link_->Repoint(host, port);
    }
    std::unique_lock<std::shared_mutex> lock(runtime_mu_);
    runtime_->SetPrimaryRedirect(host + ":" + std::to_string(port));
    return Status::OK();
  }

  /// Takes the link out and joins it outside the runtime lock: its
  /// thread may need that lock to finish an in-flight apply.
  void RetireLink() {
    std::unique_ptr<ReplicaLink> link;
    {
      std::lock_guard<std::mutex> lock(link_mu_);
      link = std::move(link_);
    }
    if (link != nullptr) link->Stop();
  }

  // --- Replication subscriptions ---------------------------------------------

  /// Gate for an incoming subscription: the runtime must be able to
  /// ship (durable), and the fencing rule must admit the replica's
  /// epoch.
  Status ValidateHello(const ReplicaHello& hello, uint64_t* local_epoch) {
    {
      std::shared_lock<std::shared_mutex> lock(runtime_mu_);
      *local_epoch = runtime_->replication_epoch();
      // Probes replication capability (in-memory runtimes refuse
      // here).
      LTAM_RETURN_IF_ERROR(runtime_->ReplicationPosition().status());
    }
    return CheckSubscriptionEpoch(*local_epoch, hello.epoch);
  }

  /// Spawns the per-subscription shipper, keyed by connection id so the
  /// I/O thread can retire it when the connection drops. A second hello
  /// on the same connection replaces (and stops) the first shipper.
  void StartShipper(const ConnectionPtr& conn, uint64_t position) {
    auto send = [this, conn](MessageType type,
                             const std::string& payload) -> bool {
      if (conn->dead.load(std::memory_order_acquire)) return false;
      Respond(conn, type, /*id=*/0, payload);
      bool failed = false;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        failed = conn->io_failed;
      }
      return !failed && !conn->dead.load(std::memory_order_acquire);
    };
    LogShipperOptions shipper_options;
    shipper_options.metrics = options_.metrics;
    shipper_options.subscriber_id = conn->id;
    auto shipper = std::make_unique<LogShipper>(
        runtime_, &runtime_mu_, position, std::move(send),
        shipper_options);
    std::unique_ptr<LogShipper> replaced;
    {
      std::lock_guard<std::mutex> lock(shippers_mu_);
      replaced = std::move(shippers_[conn->id]);
      shipper->Start();
      shippers_[conn->id] = std::move(shipper);
    }
    if (replaced != nullptr) replaced->Stop();
  }

  void StopShipper(uint64_t conn_id) {
    std::unique_ptr<LogShipper> shipper;
    {
      std::lock_guard<std::mutex> lock(shippers_mu_);
      auto it = shippers_.find(conn_id);
      if (it == shippers_.end()) return;
      shipper = std::move(it->second);
      shippers_.erase(it);
    }
    shipper->Stop();  // Outside the lock: Stop joins the shipper thread.
  }

  void StopAllShippers() {
    std::unordered_map<uint64_t, std::unique_ptr<LogShipper>> taken;
    {
      std::lock_guard<std::mutex> lock(shippers_mu_);
      taken.swap(shippers_);
    }
    for (auto& [id, shipper] : taken) shipper->Stop();
  }

  /// Flushes pending output from the I/O thread; false when the
  /// connection is done.
  bool FlushTo(const ConnectionPtr& conn) {
    bool disarm = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      size_t off = 0;
      while (off < conn->out.size()) {
        ssize_t n = ::send(conn->fd, conn->out.data() + off,
                           conn->out.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
          off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn->out.erase(0, off);
        return false;
      }
      conn->out.erase(0, off);
      if (conn->out.empty()) {
        if (conn->close_after_flush) return false;
        if (conn->write_armed) {
          conn->write_armed = false;
          disarm = true;
        }
      }
    }
    if (disarm) {
      UpdateInterest(conn, /*want_read=*/true, /*want_write=*/false);
    }
    return true;
  }

  /// Sends one response frame. Safe from any thread: when the
  /// connection's buffer is empty the frame goes straight to the socket
  /// (the common case — no wakeup, no extra epoll round-trip); only a
  /// short write leaves residue for the I/O loop's EPOLLOUT. A
  /// payload over the wire ceiling (e.g. a query whose table outgrew
  /// 8 MiB) degrades to a structured error — it must never reach
  /// EncodeFrame's fatal check and take the whole service down.
  void Respond(const ConnectionPtr& conn, MessageType type, uint32_t id,
               const std::string& payload) {
    std::string frame;
    if (payload.size() > kMaxFramePayload) {
      frame = EncodeFrame(
          MessageType::kError, id,
          EncodeErrorResult(Status::OutOfRange(
              std::string(MessageTypeToString(type)) + " response of " +
              std::to_string(payload.size()) +
              " bytes exceeds the frame ceiling; narrow the request")));
    } else {
      frame = EncodeFrame(type, id, payload);
    }
    bool need_attention = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->dead.load(std::memory_order_acquire)) return;
      if (conn->io_failed) return;
      if (conn->out.empty()) {
        size_t off = 0;
        while (off < frame.size()) {
          ssize_t n = ::send(conn->fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn->io_failed = true;  // Hard error: the I/O loop reaps it.
          need_attention = true;
          break;
        }
        if (!conn->io_failed && off < frame.size()) {
          conn->out.assign(frame, off, std::string::npos);
          need_attention = !conn->write_armed;
        }
      } else {
        conn->out += frame;
        need_attention = !conn->write_armed;
        if (conn->out.size() > kMaxConnectionBacklogBytes) {
          // A client writing requests but never reading responses
          // cannot buffer without bound.
          conn->io_failed = true;
          need_attention = true;
        }
      }
    }
    if (need_attention) SignalAttention(conn);
  }

  // --- Ingest FIFOs ----------------------------------------------------------

  /// Quota check (global budget first, then the per-connection share),
  /// then a push onto the connection's FIFO.
  void EnqueueIngest(IngestJob job) {
    const size_t units = job.units;
    if (queued_units_ + units > options_.max_queued_events) {
      Respond(job.conn, MessageType::kError, job.request_id,
              EncodeErrorResult(Status::FailedPrecondition(
                  "ingest queue full (" + std::to_string(queued_units_) +
                  " events queued); retry later")));
      return;
    }
    // Per-connection quota: one flooding client is refused on ITS share
    // long before it can exhaust the global budget and starve every
    // other connection.
    Connection& conn = *job.conn;
    if (conn.queued_units + units > options_.max_connection_queued_events) {
      {
        std::lock_guard<std::mutex> lock(coalescer_stats_mu_);
        ++coalescer_stats_.connection_quota_refusals;
      }
      if (c_quota_refusals_ != nullptr) c_quota_refusals_->Increment();
      Respond(job.conn, MessageType::kError, job.request_id,
              EncodeErrorResult(Status::FailedPrecondition(
                  "connection ingest quota full (" +
                  std::to_string(conn.queued_units) +
                  " events queued on this connection); read responses or "
                  "retry later")));
      return;
    }
    queued_units_ += units;
    conn.queued_units += units;
    // Apply frames only: barriers (Checkpoint/ApplyFix) never enter the
    // merge group, so counting them here would strand the counter above
    // every per-frame stage histogram and break the reconciliation.
    if (c_frames_ != nullptr && !IsBarrier(job.type)) {
      c_frames_->Increment();
      c_events_->Increment(job.event_count);
    }
    ingest_[conn.id].push_back(std::move(job));
  }

  void EnqueueRead(ReadJob job) {
    {
      std::lock_guard<std::mutex> lock(reads_mu_);
      if (read_queue_.size() >= kMaxQueuedReads) {
        Respond(job.conn, MessageType::kError, job.request_id,
                EncodeErrorResult(Status::FailedPrecondition(
                    "read queue full (" +
                    std::to_string(read_queue_.size()) +
                    " queries queued); retry later")));
        return;
      }
      read_queue_.push_back(std::move(job));
    }
    // One job wakes one worker. Waking both lets the faster waker take
    // the job, which trims the query round trip, but every frame then
    // pays for a second wakeup that finds the queue empty. A busy worker
    // re-checks the queue before it waits again, so no job is left
    // without a taker.
    reads_cv_.notify_one();
  }

  // --- Ingest rounds ---------------------------------------------------------

  /// One ingest round (the coalescer): apply every connection's leading
  /// barriers, then merge one apply frame per connection into a single
  /// runtime batch, wait for it to be durable and answer its frames.
  /// The I/O thread runs one after each epoll pass, and Stop() runs the
  /// rest once the loop is gone.
  void RoundOnce() {
    if (ingest_.empty()) return;
    // Barriers: ApplyFix/Checkpoint apply alone, in their connection's
    // FIFO position.
    for (auto& [id, fifo] : ingest_) {
      while (!fifo.empty() && IsBarrier(fifo.front().type)) {
        IngestJob job = std::move(fifo.front());
        fifo.pop_front();
        ReleaseUnits(job);
        if (job.type == MessageType::kApplyFix) {
          ProcessFix(job);
        } else {
          ProcessCheckpoint(job);
        }
      }
    }
    // Merge group: at most ONE ApplyBatch frame per connection
    // (the earliest queued), bounded by kMaxCoalescedEvents. Merging
    // across connections is the whole point — it amortizes the sharded
    // fan-out and group commit — while one-frame-per-connection keeps
    // batch-scoped alert attribution exact and preserves every
    // connection's (hence every subject's, when subjects are not shared
    // across connections) time order. Every front is an apply frame
    // now: the loop above took the leading barriers.
    group_.clear();
    size_t events = 0;
    const uint64_t pickup_ns = instrumented() ? MonotonicNowNs() : 0;
    for (auto& [id, fifo] : ingest_) {
      if (fifo.empty()) continue;
      IngestJob& front = fifo.front();
      if (!group_.empty() &&
          events + front.event_count > kMaxCoalescedEvents) {
        continue;  // Over budget this round; a smaller frame may still fit.
      }
      events += front.event_count;
      ReleaseUnits(front);
      if (pickup_ns != 0) {
        front.pickup_ns = pickup_ns;
        h_queue_wait_->Record(pickup_ns - front.recv_ns);
      }
      group_.push_back(std::move(front));
      fifo.pop_front();
    }
    if (!group_.empty()) ProcessMergedBatch(group_);
    for (auto it = ingest_.begin(); it != ingest_.end();) {
      it = it->second.empty() ? ingest_.erase(it) : std::next(it);
    }
  }

  /// Returns the frame's quota units (charged at dispatch) as its
  /// processing begins — this bounds queued + in-flight memory.
  void ReleaseUnits(const IngestJob& job) {
    job.conn->queued_units -= job.units;
    queued_units_ -= job.units;
  }

  void ProcessMergedBatch(const std::vector<IngestJob>& group) {
    // The ONE event decode: straight from each frame's payload into
    // the reused merge buffer, each frame's events contiguous in
    // arrival order. A frame that fails validation here gets its error
    // now and drops out of the merge.
    merged_.clear();
    const size_t n = group.size();
    std::vector<size_t> offsets(n, 0);
    std::vector<bool> live(n, false);
    std::vector<uint64_t> decode_ns(instrumented() ? n : 0, 0);
    size_t live_count = 0;
    for (size_t i = 0; i < n; ++i) {
      const IngestJob& job = group[i];
      offsets[i] = merged_.size();
      const uint64_t t_decode = instrumented() ? MonotonicNowNs() : 0;
      Status decoded = DecodeApplyEventsInto(job.payload, &merged_);
      if (!decoded.ok()) {
        merged_.resize(offsets[i]);
        Respond(job.conn, MessageType::kError, job.request_id,
                EncodeErrorResult(decoded));
        continue;
      }
      if (t_decode != 0) {
        decode_ns[i] = MonotonicNowNs() - t_decode;
        h_decode_->Record(decode_ns[i]);
      }
      live[i] = true;
      ++live_count;
    }
    if (live_count == 0) return;

    const uint64_t t_apply = instrumented() ? MonotonicNowNs() : 0;
    Result<BatchResult> result = [&]() -> Result<BatchResult> {
      std::unique_lock<std::shared_mutex> lock(runtime_mu_);
      return runtime_->ApplyBatch(merged_);
    }();
    const uint64_t apply_ns = instrumented() ? MonotonicNowNs() - t_apply : 0;
    {
      std::lock_guard<std::mutex> lock(coalescer_stats_mu_);
      ++coalescer_stats_.merged_batches;
      coalescer_stats_.merged_frames += live_count;
      coalescer_stats_.max_frames_per_batch =
          std::max(coalescer_stats_.max_frames_per_batch, live_count);
      coalescer_stats_.merged_events += merged_.size();
    }
    if (instrumented()) {
      // Once per live frame — the same basis as
      // CoalescerStats::merged_frames, so the two reconcile exactly.
      for (size_t i = 0; i < live_count; ++i) h_apply_->Record(apply_ns);
    }
    if (!result.ok()) {
      // A whole-batch refusal (a replica's, or one inside a Mutate
      // window): nothing was applied, and every live frame of the merge
      // gets the same refusal.
      for (size_t i = 0; i < n; ++i) {
        if (!live[i]) continue;
        const IngestJob& job = group[i];
        Respond(job.conn, MessageType::kError, job.request_id,
                EncodeErrorResult(result.status().WithContext(
                    "batch refused; nothing applied")));
      }
      return;
    }

    // No frame of the merge is answered before its events are durable.
    // One span per merged batch: frames share the batch's fsync, so
    // counting it per frame would overstate the fsync load.
    const uint64_t wait_ns =
        AwaitDurable(&result->durability, &result->watermark);
    if (instrumented()) h_fsync_wait_->Record(wait_ns);

    // Demux decisions back to their frames by offset. Every alert this
    // apply drained rides this merge: to the first frame that touched
    // its subject, else (an alert already pending before the merge — a
    // Tick before Start() or one recovery replay raised) to the first
    // live frame.
    std::unordered_map<SubjectId, size_t> owner;
    size_t first_live = n;
    for (size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      if (first_live == n) first_live = i;
      const size_t end = i + 1 < n ? offsets[i + 1] : merged_.size();
      for (size_t e = offsets[i]; e < end; ++e) {
        owner.emplace(merged_[e].subject, i);
      }
    }
    std::vector<std::vector<Alert>> routed(n);
    size_t unowned = 0;
    for (Alert& alert : result->alerts) {
      auto it = owner.find(alert.subject);
      if (it == owner.end()) ++unowned;
      routed[it == owner.end() ? first_live : it->second].push_back(
          std::move(alert));
    }
    CountUnownedAlerts(unowned);

    for (size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      const IngestJob& job = group[i];
      WireBatchResult wire;
      const size_t begin = offsets[i];
      const size_t end = i + 1 < n ? offsets[i + 1] : merged_.size();
      wire.decisions.assign(result->decisions.begin() + begin,
                            result->decisions.begin() + end);
      wire.alerts = std::move(routed[i]);
      SortAlerts(&wire.alerts);
      wire.durability = result->durability;
      wire.watermark = result->watermark;
      const uint64_t t_write = instrumented() ? MonotonicNowNs() : 0;
      Respond(job.conn, MessageType::kBatchResult, job.request_id,
              EncodeBatchResult(wire));
      if (t_write != 0) {
        const uint64_t done = MonotonicNowNs();
        const uint64_t write_ns = done - t_write;
        const uint64_t e2e_ns = done - job.recv_ns;
        h_write_->Record(write_ns);
        h_e2e_->Record(e2e_ns);
        MaybeTraceSlow(job, e2e_ns, decode_ns[i], apply_ns, wait_ns,
                       write_ns, live_count, merged_.size());
      }
    }
  }

  /// Emits one per-stage span timeline for a slow ingest frame —
  /// enough to explain a tail outlier from a single log line — bounded
  /// to a few lines per second so a saturated server cannot flood its
  /// own log (overflow is counted, not printed). Round thread only.
  void MaybeTraceSlow(const IngestJob& job, uint64_t e2e_ns,
                      uint64_t frame_decode_ns, uint64_t apply_ns,
                      uint64_t wait_ns, uint64_t write_ns,
                      size_t batch_frames, size_t batch_events) {
    if (options_.trace_threshold_us == 0) return;
    if (e2e_ns < options_.trace_threshold_us * 1000) return;
    static constexpr uint32_t kMaxTracesPerSecond = 10;
    const uint64_t now = MonotonicNowNs();
    if (now - trace_window_start_ns_ >= 1000000000ull) {
      trace_window_start_ns_ = now;
      traces_this_window_ = 0;
    }
    if (traces_this_window_ >= kMaxTracesPerSecond) {
      c_trace_suppressed_->Increment();
      return;
    }
    ++traces_this_window_;
    c_trace_emitted_->Increment();
    auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
    LTAM_LOG_WARNING << StrFormat(
        "slow request: conn=%llu req=%u e2e=%.3fms queue_wait=%.3fms "
        "decode=%.3fms apply=%.3fms fsync_wait=%.3fms write=%.3fms "
        "events=%u merged_frames=%zu merged_events=%zu",
        static_cast<unsigned long long>(job.conn->id), job.request_id,
        ms(e2e_ns), ms(job.pickup_ns - job.recv_ns), ms(frame_decode_ns),
        ms(apply_ns), ms(wait_ns), ms(write_ns), job.event_count,
        batch_frames, batch_events);
  }

  /// The durable ack: when `mark` (the watermark the apply returned)
  /// shows records not yet fsynced, runs the log round itself
  /// (WaitDurable: one write(2) and one fsync for everything applied),
  /// then refreshes `mark` and folds a log failure into `status`. It
  /// runs under the shared lock, after the apply released the exclusive
  /// one: readers and log shippers keep running, and no producer runs
  /// beside it, so what it makes durable is exactly what was applied.
  /// Returns the nanoseconds the round took (measured only when
  /// instrumented); an in-memory runtime, whose watermark never trails,
  /// returns after the one comparison.
  uint64_t AwaitDurable(Status* status, DurabilityWatermark* mark) {
    if (mark->durable >= mark->applied) return 0;
    const uint64_t t0 = instrumented() ? MonotonicNowNs() : 0;
    {
      std::shared_lock<std::shared_mutex> lock(runtime_mu_);
      Status waited = runtime_->WaitDurable();
      *mark = runtime_->Watermark();
      if (status->ok()) *status = std::move(waited);
    }
    return instrumented() ? MonotonicNowNs() - t0 : 0;
  }

  /// Counts alerts a response carried without its frame touching their
  /// subject (CoalescerStats::stranded_alerts_delivered).
  void CountUnownedAlerts(size_t unowned) {
    if (unowned == 0) return;
    std::lock_guard<std::mutex> lock(coalescer_stats_mu_);
    coalescer_stats_.stranded_alerts_delivered += unowned;
  }

  /// The fix response carries every alert its drain returned, and it
  /// is sent, like a batch result, once the fix's event is durable.
  void ProcessFix(const IngestJob& job) {
    WireFixResult wire;
    DurabilityWatermark mark;
    {
      std::unique_lock<std::shared_mutex> lock(runtime_mu_);
      wire.status = runtime_->ApplyFix(job.fix);
      wire.alerts = runtime_->DrainAlerts();
      mark = runtime_->Watermark();
    }
    (void)AwaitDurable(&wire.status, &mark);
    size_t unowned = 0;
    for (const Alert& alert : wire.alerts) {
      if (alert.subject != job.fix.subject) ++unowned;
    }
    CountUnownedAlerts(unowned);
    Respond(job.conn, MessageType::kFixResult, job.request_id,
            EncodeFixResult(wire));
  }

  void ProcessCheckpoint(const IngestJob& job) {
    Status status;
    {
      std::unique_lock<std::shared_mutex> lock(runtime_mu_);
      status = runtime_->Checkpoint();
    }
    if (status.ok()) {
      Respond(job.conn, MessageType::kCheckpointResult, job.request_id, "");
    } else {
      Respond(job.conn, MessageType::kError, job.request_id,
              EncodeErrorResult(status));
    }
  }

  /// Best-effort blocking flush of every surviving connection's buffer
  /// (bounded by a send timeout) so final responses actually reach
  /// peers before the sockets close.
  void FinalFlush() {
    for (const auto& [fd, conn] : connections_) {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->dead.load(std::memory_order_acquire) || conn->out.empty()) {
        continue;
      }
      int flags = ::fcntl(conn->fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(conn->fd, F_SETFL, flags & ~O_NONBLOCK);
      timeval tv{};
      tv.tv_usec = 500 * 1000;
      ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      size_t off = 0;
      while (off < conn->out.size()) {
        ssize_t sent = ::send(conn->fd, conn->out.data() + off,
                              conn->out.size() - off, MSG_NOSIGNAL);
        if (sent > 0) {
          off += static_cast<size_t>(sent);
          continue;
        }
        if (sent < 0 && errno == EINTR) continue;
        break;
      }
      conn->out.clear();
    }
  }

  // --- Read workers ----------------------------------------------------------

  void ReadLoop() {
    while (true) {
      ReadJob job;
      {
        std::unique_lock<std::mutex> lock(reads_mu_);
        reads_cv_.wait(lock, [this] {
          return stopping_.load() || !read_queue_.empty();
        });
        if (read_queue_.empty()) {
          if (stopping_) return;
          continue;
        }
        job = std::move(read_queue_.front());
        read_queue_.pop_front();
      }
      if (job.type == MessageType::kStats) {
        RuntimeStats stats;
        {
          std::shared_lock<std::shared_mutex> lock(runtime_mu_);
          stats = runtime_->Stats();
        }
        Respond(job.conn, MessageType::kStatsResult, job.request_id,
                EncodeStatsResult(stats));
        continue;
      }
      if (job.type == MessageType::kMetrics) {
        // No runtime lock: the registry has its own synchronization, so
        // a scrape can never stall behind (or stall) an ingest round.
        const MetricsSnapshot snapshot = options_.metrics->Snapshot();
        Respond(job.conn, MessageType::kMetricsResult, job.request_id,
                EncodeMetricsResult(snapshot));
        continue;
      }
      const uint64_t t_query = instrumented() ? MonotonicNowNs() : 0;
      Result<QueryResult> result = [&]() -> Result<QueryResult> {
        std::shared_lock<std::shared_mutex> lock(runtime_mu_);
        return interpreter_->Run(job.statement);
      }();
      if (t_query != 0) h_query_->Record(MonotonicNowNs() - t_query);
      if (result.ok()) {
        Respond(job.conn, MessageType::kQueryResult, job.request_id,
                EncodeQueryResult(*result));
      } else {
        Respond(job.conn, MessageType::kError, job.request_id,
                EncodeErrorResult(result.status()));
      }
    }
  }

  AccessRuntime* const runtime_;
  const ServerOptions options_;
  std::unique_ptr<QueryInterpreter> interpreter_;

  bool started_ = false;
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;

  // The I/O loop. The connection map, the id counter and all epoll
  // interest changes belong to io_thread_; other threads hand it work
  // through attention_ and wake it via event_fd_.
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::unordered_map<int, ConnectionPtr> connections_;
  uint64_t next_conn_id_ = 1;
  std::mutex attention_mu_;
  std::vector<ConnectionPtr> attention_;
  std::thread io_thread_;

  std::vector<std::thread> read_threads_;

  /// The ingest rounds take it exclusive to apply and shared to make
  /// the batch durable; readers (query/stats workers) take it shared.
  /// This is the entire concurrency contract between the runtime's
  /// single-control-thread discipline and the server's parallel read
  /// path.
  std::shared_mutex runtime_mu_;

  std::mutex reads_mu_;
  std::condition_variable reads_cv_;
  std::deque<ReadJob> read_queue_;

  // The ingest path's state, owned by the I/O thread (by Stop()'s
  // thread once the loop is joined).
  /// Each connection's queued ingest frames in arrival order, keyed by
  /// Connection::id, so rounds visit connections in accept order. A
  /// connection leaves the map once its FIFO drains; its queued frames
  /// keep a dropped connection alive until a round has applied them.
  std::map<uint64_t, std::deque<IngestJob>> ingest_;
  /// Queue units of every queued frame (released at pickup).
  size_t queued_units_ = 0;
  std::vector<IngestJob> group_;
  std::vector<AccessEvent> merged_;

  // Telemetry (all round-thread-only except the registry handles,
  // which are internally synchronized). Handles resolved once in the
  // ctor; null when ServerOptions::metrics is null.
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_decode_ = nullptr;
  Histogram* h_apply_ = nullptr;
  Histogram* h_fsync_wait_ = nullptr;
  Histogram* h_write_ = nullptr;
  Histogram* h_e2e_ = nullptr;
  Histogram* h_query_ = nullptr;
  Counter* c_frames_ = nullptr;
  Counter* c_events_ = nullptr;
  Counter* c_quota_refusals_ = nullptr;
  Counter* c_trace_emitted_ = nullptr;
  Counter* c_trace_suppressed_ = nullptr;
  uint64_t trace_window_start_ns_ = 0;
  uint32_t traces_this_window_ = 0;

  mutable std::mutex coalescer_stats_mu_;
  CoalescerStats coalescer_stats_;

  /// Live log shippers, keyed by subscriber connection id. Entries are
  /// retired by the I/O thread's Drop, by a replacing hello, or by
  /// Stop().
  std::mutex shippers_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<LogShipper>> shippers_;

  /// A replica's upstream link; null on a primary and once retired.
  mutable std::mutex link_mu_;
  std::unique_ptr<ReplicaLink> link_;
};

ServiceServer::ServiceServer(AccessRuntime* runtime, ServerOptions options)
    : impl_(std::make_unique<Impl>(runtime, options)) {}

ServiceServer::~ServiceServer() = default;

Status ServiceServer::Start() { return impl_->Start(); }

void ServiceServer::Stop() { impl_->Stop(); }

uint16_t ServiceServer::bound_port() const { return impl_->bound_port(); }

CoalescerStats ServiceServer::coalescer_stats() const {
  return impl_->coalescer_stats();
}

Status ServiceServer::upstream_error() const {
  return impl_->upstream_error();
}

}  // namespace ltam
