// Copyright 2026 The LTAM Authors.
// ltam-serve: the TCP front end over one AccessRuntime.
//
// AccessRuntime demands single-threaded event application (the same
// discipline every engine below it requires), so a server cannot simply
// hand each connection its own runtime calls. ServiceServer instead runs
// three thread groups around one runtime:
//
//  - one I/O thread: an epoll(7) readiness loop with an eventfd wakeup
//    that accepts connections and owns every socket's reads and epoll
//    interest. Each read lands in the connection's FrameAssembler,
//    which hands out complete frames with owned payloads: the I/O
//    thread validates an ApplyBatch payload's shape in O(1) (count vs
//    size), never decodes the events, and queues the payload for the
//    coalescer. Response bytes are written directly from whichever
//    thread produced them when the socket is writable (the common
//    loopback case); only a short write falls back to the loop's
//    EPOLLOUT.
//  - the ingest coalescer: ONE thread that owns event application. It
//    swaps out the ingest queue the I/O thread pushes to (one producer,
//    so the queue's push order is already per-connection FIFO) and
//    merges ApplyBatch frames — at most one per connection per round,
//    each frame's events contiguous and in order, so per-subject time
//    order within a connection is preserved — into a single
//    AccessRuntime::ApplyBatch call. The merge is also where the ONE
//    event decode happens, straight from the queued payloads into the
//    reused merge buffer. Decisions are demultiplexed back to their
//    originating frames by offset and drained alerts are routed to
//    frames by subject (exact, because one round holds one frame per
//    connection). This is the scaling mechanism: the sharded fan-out
//    and the group-commit fsync are paid once per merged
//    batch, not once per connection. ApplyFix and Checkpoint frames are
//    per-connection barriers, applied alone when they reach the front
//    of their connection's queue.
//  - read workers: a small pool answering Query (the query language over
//    the runtime's MovementView), Stats and Metrics concurrently — they
//    take the runtime lock shared (Metrics takes none), so reads run in
//    parallel with each other and with all network I/O, and only
//    exclude the coalescer's exclusive application window.
//  - on a replica (ServerOptions::replica_of), the upstream link: one
//    thread applying the primary's log stream under the exclusive
//    runtime lock. The server answers kPromote and kRepoint itself, and
//    Stop() retires the link before anything else.
//
// Responses preserve per-connection order within the ingest path (the
// coalescer is FIFO per connection) but reads may overtake writes; every
// response echoes its request_id, so pipelined clients demultiplex by id.
//
// Alert delivery: every alert rides the response of the frame whose
// application drained it, so the server holds no alert from one
// coalescer round to the next. Within a merged batch that is the first
// frame that touched the alert's subject, else the merge's first live
// frame (an alert already pending before the merge: a Tick before
// Start(), or one recovery replay raised). An ApplyFix response carries
// every alert its drain returned. Alerts pending while no frame arrives
// stay in the runtime's buffer until one does.
//
// Durable acknowledgement: on a durable runtime ApplyBatch returns as
// soon as the decisions are computed and the log records queued, and
// the runtime's one log thread writes and fsyncs them. The coalescer
// then releases the exclusive lock and waits, under the shared lock,
// until the durability watermark covers the merged batch; only then
// does it answer the batch's frames (an ApplyFix waits the same way).
// So an answered event survives a crash. Frames that arrive during the
// fsync join the next merge. Readers are not held back: a Query may see
// an applied event whose fsync has not landed yet, though that event's
// writer is answered only once it has. A failed log is answered with
// the batch's decisions and a non-OK durability status, and a frozen
// watermark; decisions never change.

#ifndef LTAM_SERVICE_SERVER_H_
#define LTAM_SERVICE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

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
  /// "host:port" of the primary to follow; empty serves as a primary.
  /// When set, Start() demotes the (durable) runtime, names this
  /// endpoint in write refusals and runs the upstream link, and the I/O
  /// thread answers kPromote/kRepoint inline. A primary refuses both:
  /// promoting it could hand a fenced ex-primary its successor's epoch.
  std::string replica_of;
  /// Telemetry registry (may be null; borrowed, must outlive the
  /// server). When set, the ingest path records per-stage histograms —
  /// ingest.queue_wait (dispatch to coalesce pickup), ingest.decode
  /// (queued payload to merge buffer), ingest.apply (the merged
  /// ApplyBatch, lock wait included), ingest.fsync_wait (the
  /// coalescer's wait for the merged batch's fsync before it answers,
  /// one span per merged batch, 0 when nothing was pending),
  /// ingest.write (response encode + send) and ingest.e2e (recv to
  /// response written, so the wait included) — plus query.run,
  /// ingest.frames/ingest.events counters, and per-replica shipped-lag
  /// gauges from the log shippers. Null =
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
  /// Alerts a response carried without its frame touching their
  /// subject (see the alert delivery note above). Zero means every
  /// alert was attributed exactly.
  size_t stranded_alerts_delivered = 0;
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
  /// when already started or asked to follow with an in-memory runtime,
  /// kInvalidArgument for a malformed `replica_of` (both before anything
  /// is bound); IOError for socket failures.
  Status Start();

  /// Stops accepting, retires the upstream link (no replicated record
  /// lands once Stop() returns), drains the ingest queue (queued frames
  /// still get their responses), flushes what the sockets will take,
  /// closes every connection, and joins all threads. Idempotent.
  void Stop();

  /// The port actually bound (== options.port unless it was 0).
  uint16_t bound_port() const;

  /// Live coalescing counters.
  CoalescerStats coalescer_stats() const;

  /// The last error that dropped the upstream link's dial or stream
  /// (OK when none has, and whenever no link runs: on a primary, once
  /// promoted, after Stop()).
  Status upstream_error() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ltam

#endif  // LTAM_SERVICE_SERVER_H_
