// Copyright 2026 The LTAM Authors.

#include "load.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>

#include "loadgen/loadgen.h"
#include "service/client.h"
#include "stats.h"

namespace ltam::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// A response not seen for this long fails the connection.
constexpr int kReceiveTimeoutMs = 30'000;
/// Lateness below this is scheduler jitter, not the generator falling
/// behind.
constexpr uint64_t kLateNs = 1'000'000;

class RunClock {
 public:
  explicit RunClock(Clock::time_point start) : start_(start) {}
  uint64_t Now() const {
    const auto d = Clock::now() - start_;
    return d.count() < 0
               ? 0
               : static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                         .count());
  }
  /// Sleeps to within ~1.5 ms of `ns`, then spins: a plain sleep on a
  /// VM overshoots by milliseconds, which would be charged to the op.
  void WaitUntil(uint64_t ns) const {
    while (true) {
      const uint64_t now = Now();
      if (now >= ns) return;
      if (ns - now > 2'500'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(ns - now - 1'500'000));
      } else {
        std::this_thread::yield();
      }
    }
  }
  void WaitForStart() const { std::this_thread::sleep_until(start_); }

 private:
  Clock::time_point start_;
};

void NoteSend(uint64_t sched_ns, uint64_t send_ns, ConnectionLog* log) {
  ++log->sends;
  if (send_ns > sched_ns) {
    log->max_lag_ns = std::max(log->max_lag_ns, send_ns - sched_ns);
    if (send_ns - sched_ns > kLateNs) ++log->late_sends;
  }
}

/// One ingest connection.
class IngestWorker {
 public:
  IngestWorker(const WorkloadSpec& spec, uint32_t conn,
               const std::vector<std::vector<AccessEvent>>& frames,
               const std::vector<uint64_t>& schedule,
               std::unique_ptr<ServiceClient> client, const RunClock& clock,
               ConnectionLog* log)
      : spec_(spec),
        conn_(conn),
        frames_(frames),
        schedule_(schedule),
        client_(std::move(client)),
        clock_(clock),
        log_(log) {
    log_->acked.assign(frames_.size(), 0);
    log_->digest.assign(frames_.size(), 0);
    log_->ops.reserve(frames_.size());
  }

  void Run() {
    clock_.WaitForStart();
    Status st = RunOpen();
    if (st.ok()) st = DrainAll();
    if (!st.ok()) {
      log_->status = st;
      // Whatever is still in flight was never answered.
      for (const auto& [id, op] : in_flight_) {
        (void)id;
        log_->ops[op].done_ns = clock_.Now();
      }
      // Every scheduled frame was attempted.
      for (size_t f = next_; f < frames_.size(); ++f) {
        OpRecord r;
        r.conn = conn_;
        r.index = static_cast<uint32_t>(f);
        r.events = static_cast<uint32_t>(frames_[f].size());
        r.sched_ns = schedule_[f];
        log_->ops.push_back(r);
      }
    }
  }

 private:
  Status RunOpen() {
    for (; next_ < frames_.size(); ++next_) {
      const uint64_t sched = schedule_[next_];
      // Idle until the arrival is due, harvesting responses meanwhile.
      while (true) {
        const uint64_t now = clock_.Now();
        if (now >= sched) break;
        const uint64_t left = sched - now;
        const int wait_ms =
            left > 2'500'000 ? static_cast<int>((left - 1'500'000) / 1'000'000)
                             : 0;
        LTAM_RETURN_IF_ERROR(Handle(client_->PollBatchResult(wait_ms)));
      }
      while (in_flight_.size() >= spec_.max_in_flight) {
        LTAM_RETURN_IF_ERROR(ReceiveOne());
      }
      LTAM_RETURN_IF_ERROR(Submit(next_, sched));
    }
    return Status::OK();
  }

  Status Submit(size_t f, uint64_t sched) {
    const std::vector<AccessEvent>& frame = frames_[f];
    OpRecord r;
    r.conn = conn_;
    r.index = static_cast<uint32_t>(f);
    r.events = static_cast<uint32_t>(frame.size());
    r.sched_ns = sched;
    r.send_ns = clock_.Now();
    NoteSend(sched, r.send_ns, log_);
    Result<uint32_t> id =
        client_->SubmitBatch(Span<const AccessEvent>(frame.data(), frame.size()));
    if (!id.ok()) return id.status();
    LTAM_RETURN_IF_ERROR(client_->Flush());
    r.submit_end_ns = clock_.Now();
    r.id = *id;
    in_flight_.emplace(*id, log_->ops.size());
    log_->ops.push_back(r);
    return Status::OK();
  }

  Status ReceiveOne() {
    auto polled = client_->PollBatchResult(kReceiveTimeoutMs);
    if (polled.ok() && !polled->has_value()) {
      return Status::IOError("no response for " +
                             std::to_string(kReceiveTimeoutMs) + "ms");
    }
    return Handle(polled);
  }

  Status Handle(
      const Result<std::optional<ServiceClient::PipelinedBatch>>& polled) {
    if (!polled.ok()) return polled.status();
    if (!polled->has_value()) return Status::OK();
    const ServiceClient::PipelinedBatch& batch = **polled;
    auto it = in_flight_.find(batch.request_id);
    if (it == in_flight_.end()) {
      return Status::Internal("response for unknown request " +
                              std::to_string(batch.request_id));
    }
    OpRecord& r = log_->ops[it->second];
    in_flight_.erase(it);
    r.done_ns = clock_.Now();
    if (!batch.refusal.ok()) return Status::OK();  // A miss, not fatal.
    if (batch.result.decisions.size() != r.events ||
        !batch.result.durability.ok()) {
      return Status::Internal("frame " + std::to_string(r.index) +
                              " answered with " +
                              std::to_string(batch.result.decisions.size()) +
                              " decisions, durability " +
                              batch.result.durability.ToString());
    }
    r.ok = true;
    log_->acked[r.index] = 1;
    log_->digest[r.index] =
        DigestDecisions(kDigestSeed, batch.result.decisions);
    return Status::OK();
  }

  Status DrainAll() {
    while (!in_flight_.empty()) LTAM_RETURN_IF_ERROR(ReceiveOne());
    return Status::OK();
  }

  const WorkloadSpec& spec_;
  const uint32_t conn_;
  const std::vector<std::vector<AccessEvent>>& frames_;
  const std::vector<uint64_t>& schedule_;
  std::unique_ptr<ServiceClient> client_;
  const RunClock& clock_;
  ConnectionLog* log_;
  size_t next_ = 0;
  /// Request id -> index into log_->ops.
  std::unordered_map<uint32_t, size_t> in_flight_;
};

/// One control connection: synchronous Query/Checkpoint calls, each sent
/// at its scheduled time (or as soon as the previous call returns).
void RunControl(const std::vector<SyncOp>& ops,
                const std::vector<PoolQuery>& pool, uint32_t conn,
                ServiceClient* client, const RunClock& clock,
                ConnectionLog* log) {
  log->ops.reserve(ops.size());
  clock.WaitForStart();
  uint32_t seq = 0;
  for (const SyncOp& op : ops) {
    clock.WaitUntil(op.sched_ns);
    OpRecord r;
    r.kind = op.kind;
    r.conn = conn;
    r.id = seq++;
    r.index = op.pool_index;
    r.sched_ns = op.sched_ns;
    r.send_ns = clock.Now();
    NoteSend(r.sched_ns, r.send_ns, log);
    Status st = Status::OK();
    if (op.kind == OpKind::kQuery) {
      st = client->Query(pool[op.pool_index].statement).status();
    } else {
      st = client->Checkpoint();
    }
    r.done_ns = clock.Now();
    r.submit_end_ns = r.send_ns;
    r.ok = st.ok();
    if (!st.ok() && log->status.ok()) log->status = st;
    log->ops.push_back(r);
  }
}

}  // namespace

LoadPlan MakeLoadPlan(const WorkloadSpec& spec, const LoadScenario& scenario,
                      double seconds) {
  LoadPlan plan;
  const size_t streams = scenario.streams.size();
  for (size_t c = 0; c < streams; ++c) {
    const auto& frames = scenario.streams[c];
    size_t events = 0;
    for (const auto& f : frames) events += f.size();
    const double frames_per_s =
        events == 0 ? 0.0
                    : spec.rate / static_cast<double>(streams) *
                          static_cast<double>(frames.size()) /
                          static_cast<double>(events);
    plan.frame_schedule.push_back(BuildArrivalScheduleNs(
        frames.size(), frames_per_s, 1.0, 0, spec.schedule_seed + c + 1));
  }

  // Checkpoints at fixed stream positions (frames of stream 0): half of
  // them in the first quarter of the stream, the rest spread over the
  // remainder. On a retention server the dense phase seals enough
  // segments inside the horizon to compact them; in the sparse phase the
  // compacted history ages past the horizon before enough new segments
  // pile up to merge it again, so it drops.
  std::vector<SyncOp> checkpoints;
  const size_t dense = spec.checkpoints / 2;
  for (size_t j = 0; j < spec.checkpoints; ++j) {
    const double pos =
        j < dense ? 0.25 * (static_cast<double>(j) + 0.5) /
                        static_cast<double>(dense)
                  : 0.25 + 0.75 * (static_cast<double>(j - dense) + 0.5) /
                               static_cast<double>(spec.checkpoints - dense);
    const auto& s0 = plan.frame_schedule.at(0);
    const size_t frame =
        std::min(s0.size() - 1,
                 static_cast<size_t>(pos * static_cast<double>(s0.size())));
    checkpoints.push_back({s0.at(frame), OpKind::kCheckpoint, 0});
  }

  if (spec.concurrent_queries == 0) {
    plan.control.push_back(std::move(checkpoints));
    return plan;
  }

  // Open-loop query stream on two connections; statement i reads the
  // recent window of the stream as ingested by its scheduled time.
  const size_t per_conn = spec.concurrent_queries / 2;
  std::vector<uint64_t> query_sched;
  for (size_t q = 0; q < 2; ++q) {
    std::vector<uint64_t> s = BuildArrivalScheduleNs(
        per_conn, static_cast<double>(per_conn) / seconds, 1.0, 0,
        spec.schedule_seed ^ (0xd1b54a32d192ed03ull * (q + 1)));
    query_sched.insert(query_sched.end(), s.begin(), s.end());
  }
  const auto& s0 = plan.frame_schedule.at(0);
  const auto& f0 = scenario.streams.at(0);
  std::vector<Chronon> prefix_max(f0.size(), 0);
  for (size_t f = 0; f < f0.size(); ++f) {
    Chronon m = f > 0 ? prefix_max[f - 1] : 0;
    for (const AccessEvent& e : f0[f]) m = std::max(m, e.time);
    prefix_max[f] = m;
  }
  auto now_of = [&](size_t i) -> Chronon {
    const size_t ingested =
        std::upper_bound(s0.begin(), s0.end(), query_sched[i]) - s0.begin();
    return ingested == 0 ? 0 : prefix_max[ingested - 1];
  };
  plan.pool = MakeQueryPool(scenario, query_sched.size(), spec.schedule_seed,
                            spec.query_window, now_of);
  for (size_t q = 0; q < 2; ++q) {
    std::vector<SyncOp> ops;
    for (size_t i = q * per_conn; i < (q + 1) * per_conn; ++i) {
      ops.push_back({query_sched[i], OpKind::kQuery, static_cast<uint32_t>(i)});
    }
    if (q == 0) {
      ops.insert(ops.end(), checkpoints.begin(), checkpoints.end());
      std::stable_sort(ops.begin(), ops.end(),
                       [](const SyncOp& a, const SyncOp& b) {
                         return a.sched_ns < b.sched_ns;
                       });
    }
    plan.control.push_back(std::move(ops));
  }
  return plan;
}

Result<LoadResult> RunLoadPhase(const WorkloadSpec& spec,
                                const LoadScenario& scenario,
                                const LoadPlan& plan, uint16_t port) {
  const size_t streams = scenario.streams.size();
  std::vector<std::unique_ptr<ServiceClient>> ingest_clients;
  std::vector<std::unique_ptr<ServiceClient>> control_clients;
  for (size_t c = 0; c < streams + plan.control.size(); ++c) {
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<ServiceClient> client,
                          ServiceClient::Connect("127.0.0.1", port));
    (c < streams ? ingest_clients : control_clients)
        .push_back(std::move(client));
  }

  LoadResult result;
  result.ingest.resize(streams);
  result.control.resize(plan.control.size());
  // A common start a little ahead, so every thread is parked when it
  // arrives.
  const RunClock clock(Clock::now() + std::chrono::milliseconds(20));
  std::vector<std::unique_ptr<IngestWorker>> workers;
  for (size_t c = 0; c < streams; ++c) {
    workers.push_back(std::make_unique<IngestWorker>(
        spec, static_cast<uint32_t>(c), scenario.streams[c],
        plan.frame_schedule[c], std::move(ingest_clients[c]), clock,
        &result.ingest[c]));
  }
  {
    std::vector<std::thread> threads;
    for (auto& w : workers) threads.emplace_back([&w]() { w->Run(); });
    for (size_t q = 0; q < plan.control.size(); ++q) {
      threads.emplace_back(RunControl, std::cref(plan.control[q]),
                           std::cref(plan.pool), static_cast<uint32_t>(q),
                           control_clients[q].get(), std::cref(clock),
                           &result.control[q]);
    }
    for (std::thread& t : threads) t.join();
  }
  return result;
}

}  // namespace ltam::perfbench
