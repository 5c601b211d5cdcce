// Copyright 2026 The LTAM Authors.
// ltam-serve: the TCP front end over one AccessRuntime.
//
// AccessRuntime demands single-threaded event application (the same
// discipline every engine below it requires), so a server cannot simply
// hand each connection its own runtime calls. ServiceServer instead runs
// three thread groups around one runtime:
//
//  - N I/O threads (ServerOptions::io_threads): each runs its own
//    epoll(7) readiness loop with an eventfd wakeup. Accepted
//    connections are steered round-robin across the loops, and each
//    loop owns its connections' reads, writes, and epoll interest for
//    their whole lifetime — no socket is ever touched by two I/O
//    threads. Frames are received straight into the connection's
//    FrameAssembler chunks and dispatched as zero-copy FrameViews: the
//    I/O thread validates an Apply/ApplyBatch payload's shape in O(1)
//    (count vs size), never decodes the events, and enqueues the pinned
//    view. Response bytes are written directly from whichever thread
//    produced them when the socket is writable (the common loopback
//    case); only a short write falls back to the owner loop's EPOLLOUT.
//  - the ingest coalescer: ONE thread that owns event application. It
//    drains one lock-free MPSC ingest queue that every I/O thread
//    pushes to (each connection's only producer is its owner loop, so
//    the queue's push order is already per-connection FIFO) and merges
//    Apply/ApplyBatch frames — at most one per connection per round,
//    each frame's events contiguous and in order, so per-subject time
//    order within a connection is preserved — into a single
//    AccessRuntime::ApplyBatch call. The merge is also where the ONE
//    event decode happens, straight from the pinned frame views into
//    the reused merge buffer. Decisions are demultiplexed back to their
//    originating frames by offset and drained alerts are routed to
//    frames by subject (exact, because one round holds one frame per
//    connection). This is the scaling mechanism: the sharded fan-out
//    and the per-shard group-commit fsync are paid once per merged
//    batch, not once per connection. ApplyFix and Checkpoint frames are
//    per-connection barriers, applied alone when they reach the front
//    of their connection's queue.
//  - read workers: a small pool answering Query (the query language over
//    the runtime's MovementView) and Stats concurrently — they take the
//    runtime lock shared, so reads run in parallel with each other and
//    with all network I/O, and only exclude the coalescer's exclusive
//    application window.
//
// Responses preserve per-connection order within the ingest path (the
// coalescer is FIFO per connection) but reads may overtake writes; every
// response echoes its request_id, so pipelined clients demultiplex by id.
//
// Alert delivery guarantee: an alert whose subject no in-flight frame
// touched (e.g. raised by a Tick or an ApplyFix for an idle subject) is
// held, then attached to the next merged response — preferring the
// connection that most recently touched that subject, falling back to
// any frame of the merge after one coalescer round — and whatever is
// still held at Stop() is pushed to a live connection as a kAlertPush
// frame before the sockets close. No alert is silently dropped.
//
// Commit pipelining (RuntimeOptions::durability, ltam_serve
// --sync-mode=pipelined|interval): ApplyBatch on a pipelined runtime
// returns as soon as the decisions are computed and the log records
// queued — the fsync happens on the runtime's per-shard log threads. The
// coalescer therefore acks each frame's decisions immediately and merges
// the NEXT round while the previous round's fsync is still in flight;
// clients that need the stronger guarantee read the durability watermark
// echoed in every batch result (and in Stats) or issue a Checkpoint
// barrier.

#ifndef LTAM_SERVICE_SERVER_H_
#define LTAM_SERVICE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "runtime/access_runtime.h"
#include "util/result.h"

namespace ltam {

/// Knobs for one ServiceServer.
struct ServerOptions {
  /// Listen address. Loopback by default: exposing an enforcement
  /// runtime beyond the host is a deliberate decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see bound_port()).
  uint16_t port = 0;
  /// Number of epoll I/O loops. Accepted connections are steered
  /// round-robin; each loop owns its connections exclusively. 1 is
  /// right for a handful of connections; scale up with connection
  /// count and core count.
  uint32_t io_threads = 1;
  /// Read worker pool size (Query/Stats concurrency).
  uint32_t read_workers = 2;
  /// Ceiling on events merged into one coalesced ApplyBatch. The
  /// coalescer always takes at least one frame, so a single frame at the
  /// wire maximum still applies.
  size_t max_coalesced_events = 8192;
  /// Ingest-queue backpressure: frames arriving while this many queue
  /// units (one per event, minimum one per frame — so event-free
  /// Checkpoint floods are bounded too) are already queued are refused
  /// with kFailedPrecondition instead of buffering without bound.
  size_t max_queued_events = 1u << 20;
  /// Per-connection ingest quota, in the same queue units: one client
  /// flooding pipelined frames is refused once ITS queued share crosses
  /// this, long before it can exhaust the global budget and starve
  /// every other connection. Refusals are counted in
  /// CoalescerStats::connection_quota_refusals.
  size_t max_connection_queued_events = 1u << 16;
  /// Read-queue backpressure: Query/Stats frames beyond this many
  /// queued are refused with kFailedPrecondition.
  size_t max_queued_reads = 4096;
  /// A connection whose unread response backlog exceeds this many bytes
  /// (a client writing requests but never reading responses) is
  /// dropped.
  size_t max_connection_backlog_bytes = 64u << 20;
  /// listen(2) backlog.
  int listen_backlog = 64;
  /// Failover hooks, supplied by the embedding binary (which owns the
  /// replica link and knows how to retire it). A kPromote / kRepoint
  /// frame invokes the hook inline on the receiving I/O thread — these
  /// are rare, operator-driven frames, and blocking one loop briefly
  /// during a failover is the point. An unset hook refuses the frame
  /// with a structured error.
  std::function<Result<uint64_t>()> promote_hook;
  std::function<Status(const std::string& host, uint16_t port)> repoint_hook;
  /// Telemetry registry (may be null; borrowed, must outlive the
  /// server). When set, the ingest path records per-stage histograms —
  /// ingest.queue_wait (dispatch to coalesce pickup), ingest.decode
  /// (frame view to merge buffer), ingest.apply (the merged
  /// ApplyBatch, lock wait included), ingest.fsync_wait (apply return
  /// to durable watermark catch-up, per merged batch — the part of
  /// durability the pipelined ack does NOT wait for), ingest.write
  /// (response encode + send) and ingest.e2e (recv to response
  /// written) — plus query.run, ingest.frames/ingest.events counters,
  /// and per-replica shipped-lag gauges from the log shippers. Null =
  /// fully uninstrumented hot path (the bench baseline). Typically the
  /// SAME registry as RuntimeOptions::metrics so one scrape shows
  /// server and runtime stages side by side.
  MetricsRegistry* metrics = nullptr;
  /// Slow-request tracing: an ingest frame whose end-to-end latency
  /// (recv to response written) exceeds this many microseconds gets
  /// its per-stage span timeline logged in one line, bounded to a few
  /// traces per second (suppressions are counted in trace.suppressed).
  /// 0 disables. Requires `metrics` to be set (the stages come from
  /// the same stamps).
  uint64_t trace_threshold_us = 0;
};

/// Counters describing what the coalescer actually merged — the
/// observable proof that concurrent connections amortize into shared
/// batches (asserted by tests, reported by benches).
struct CoalescerStats {
  /// Merged ApplyBatch calls issued to the runtime.
  size_t merged_batches = 0;
  /// Ingest frames those calls served.
  size_t merged_frames = 0;
  /// Largest number of frames served by one merged call.
  size_t max_frames_per_batch = 0;
  /// Events those calls carried.
  size_t merged_events = 0;
  /// Ingest frames refused because their connection's queued share
  /// exceeded ServerOptions::max_connection_queued_events (the global
  /// max_queued_events refusals are not counted here).
  size_t connection_quota_refusals = 0;
  /// Alerts no response could carry by subject, delivered via the
  /// bounded-deadline fallback or the shutdown alert-push drain (see
  /// the alert delivery guarantee above). Zero means every alert was
  /// attributed exactly.
  size_t stranded_alerts_delivered = 0;
  /// Connections each I/O loop has accepted over the server's lifetime
  /// (index = I/O thread; round-robin steering makes these near-equal).
  std::vector<size_t> io_thread_connections;
};

/// One TCP server over one AccessRuntime. The runtime is borrowed: the
/// caller keeps it alive for the server's lifetime and must not apply
/// events to it concurrently (queries through rt->query() remain safe
/// only before Start() and after Stop()).
class ServiceServer {
 public:
  ServiceServer(AccessRuntime* runtime, ServerOptions options);
  ~ServiceServer();
  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and spawns the thread groups. kFailedPrecondition
  /// when already started; IOError for socket failures.
  Status Start();

  /// Stops accepting, drains the ingest queues (queued frames still get
  /// their responses), pushes any still-held alerts to a live
  /// connection, flushes what the sockets will take, closes every
  /// connection, and joins all threads. Idempotent.
  void Stop();

  /// The port actually bound (== options.port unless it was 0).
  uint16_t bound_port() const;

  /// Live coalescing counters.
  CoalescerStats coalescer_stats() const;

  /// The lock arbitrating the runtime between the coalescer (exclusive)
  /// and the read workers (shared). A replica's upstream link applies
  /// shipped records under THIS lock, exclusive — that is the entire
  /// reason it is exposed. Valid for the server's lifetime.
  std::shared_mutex& runtime_mutex();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ltam

#endif  // LTAM_SERVICE_SERVER_H_
