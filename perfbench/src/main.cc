// Copyright 2026 The LTAM Authors.
//
// ltam_perfbench: one run of one workload against a real ltam_serve.
//
//   ltam_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --serve=PATH/ltam_serve --work-dir=DIR
//
// A run boots the server a few times on fresh runtimes (setup_s), drives
// the workload's load (load.h), scrapes the server, sweeps the query
// pool, kills the server with SIGKILL and relaunches it (recovery_s),
// then replays the acknowledged frames in process and checks every
// answer against that reference (check.h). Only a run that passes every
// check reports numbers; the last stdout line is
//
//   {"correct": true, "attempted": A, "failed": F, "metrics": {...}}
//
// With --trace=0 the metrics are the end-to-end ones. With --trace=1 the
// workload runs twice, untraced then traced; the metrics are the
// per-layer ones (server scrape, driver spans, in-process ladder) plus
// the traced-minus-untraced overhead on every end-to-end metric.
// Artifacts (result.json, spans.jsonl, server logs) go to --work-dir.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "host.h"
#include "ladder.h"
#include "load.h"
#include "service/client.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "workload.h"

namespace ltam::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kLaunchTimeoutS = 60.0;

/// The end-to-end metrics a run reports with --trace=0 (BENCHMARK.json's
/// end_to_end). They are the ones that hold still across runs on a
/// shared 4-vCPU VM: server CPU and memory, not wall-clock time, plus
/// the set-up time every run must report. The wall-clock latencies and
/// throughput are measured and printed in every run, and reported with
/// the per-layer metrics of a traced run.
bool IsGated(const std::string& name) {
  static const char* const kGated[] = {"setup_s", "server_cpu_us_per_event",
                                       "server_rss_mb"};
  for (const char* g : kGated) {
    if (name == g) return true;
  }
  return false;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string serve;
  std::string work_dir;
};

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// What one pass (untraced or traced) of a workload produced.
struct Pass {
  Status verdict = Status::OK();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;
};

const Metric* Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Latency samples of `ops` (ms, from `from` to done) and their misses.
struct Samples {
  std::vector<double> ok_ms;
  uint64_t failed = 0;
  double Quantile(double q) const {
    std::vector<double> copy = ok_ms;
    return QuantileWithMisses(&copy, failed, q);
  }
  size_t n() const { return ok_ms.size() + failed; }
};

void AddSample(const OpRecord& r, bool from_send, Samples* s) {
  if (!r.ok) {
    ++s->failed;
    return;
  }
  const uint64_t start = from_send ? r.send_ns : r.sched_ns;
  s->ok_ms.push_back(static_cast<double>(r.done_ns - start) / 1e6);
}

const LatencyHistogram* ScrapedHistogram(const MetricsSnapshot& snap,
                                         const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

double ScrapedCounter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

double ScrapedGauge(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

Status WriteSpans(const std::string& path, const LoadResult& load) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  static const char* kOp[] = {"frame", "query", "checkpoint"};
  for (const auto* logs : {&load.ingest, &load.control}) {
    for (const ConnectionLog& log : *logs) {
      for (const OpRecord& r : log.ops) {
        std::fprintf(
            f,
            "{\"op\":\"%s\",\"conn\":\"%s%u\",\"id\":%u,\"index\":%u,"
            "\"ok\":%s,\"span\":[%llu,%llu],\"loadgen.sched_lag\":[%llu,%llu],"
            "\"client.submit\":[%llu,%llu],\"client.wait\":[%llu,%llu]}\n",
            kOp[static_cast<int>(r.kind)],
            logs == &load.control ? "control" : "ingest", r.conn, r.id,
            r.index, r.ok ? "true" : "false",
            static_cast<unsigned long long>(r.sched_ns),
            static_cast<unsigned long long>(r.done_ns),
            static_cast<unsigned long long>(r.sched_ns),
            static_cast<unsigned long long>(r.send_ns),
            static_cast<unsigned long long>(r.send_ns),
            static_cast<unsigned long long>(r.submit_end_ns),
            static_cast<unsigned long long>(r.submit_end_ns),
            static_cast<unsigned long long>(r.done_ns));
      }
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

class PassRunner {
 public:
  PassRunner(const Args& args, const WorkloadSpec& spec,
             const LoadScenario& scenario, bool traced)
      : args_(args),
        spec_(spec),
        scenario_(scenario),
        traced_(traced),
        dir_(args.work_dir + (traced ? "/traced" : "/timed")) {}

  Pass Run() {
    Pass pass;
    pass.verdict = RunChecked(&pass);
    return pass;
  }

 private:
  std::string DataDir(const std::string& name) const {
    return dir_ + "/" + name;
  }

  Result<std::unique_ptr<ServerProcess>> Launch(const std::string& data,
                                                const std::string& log) {
    std::vector<std::string> flags = spec_.ServerArgs(data);
    // Traced: the server logs a span line, keyed by request id, for any
    // frame slower than 20 ms (rate-bounded server-side).
    if (traced_) flags.push_back("--trace-threshold-us=20000");
    return ServerProcess::Launch(args_.serve, flags, dir_ + "/" + log,
                                 kLaunchTimeoutS);
  }

  /// Boots on a fresh runtime setup_launches times, recording each
  /// launch-to-Ping time; returns the last server, still running on
  /// `live`.
  Result<std::unique_ptr<ServerProcess>> Boot(std::string* live,
                                              std::vector<double>* setups) {
    // Writeback left by earlier work (a previous run's directories)
    // would otherwise queue in front of a durable boot's fsyncs.
    ::sync();
    std::unique_ptr<ServerProcess> server;
    for (int i = 0; i < spec_.setup_launches; ++i) {
      *live = DataDir("data-" + std::to_string(i));
      fs::create_directories(*live);
      LTAM_ASSIGN_OR_RETURN(server, Launch(*live, "setup-" + std::to_string(i)));
      setups->push_back(server->ready_seconds());
      if (i + 1 < spec_.setup_launches) server->Kill9();
    }
    std::error_code ec;
    for (int i = 0; i + 1 < spec_.setup_launches; ++i) {
      fs::remove_all(DataDir("data-" + std::to_string(i)), ec);
    }
    return server;
  }

  struct SweepOutcome {
    std::vector<std::string> answers;
    /// Round trip of every statement.
    Samples ms;
  };

  /// Answers `pool` once over `client`.
  static SweepOutcome SweepServer(ServiceClient* client,
                                  const std::vector<PoolQuery>& pool) {
    SweepOutcome out;
    out.answers = Sweep(pool, [&](const std::string& statement) {
      const double t0 = NowSeconds();
      Result<QueryResult> r = client->Query(statement);
      if (r.ok()) {
        out.ms.ok_ms.push_back((NowSeconds() - t0) * 1e3);
      } else {
        ++out.ms.failed;
      }
      return r;
    });
    return out;
  }

  struct RelaunchOutcome {
    /// kill -9 to first answered Ping, per timed relaunch.
    std::vector<double> wall_s;
    /// Durable: the recovered server's answers to the pool and the tail.
    std::vector<std::string> sweep;
    std::vector<std::string> tail;
  };

  /// Relaunches recovery_launches times after the kill: on copies of the
  /// crashed directory `crashed` (durable), or fresh (in memory: a
  /// restart loses the history). The timed relaunches are killed as soon
  /// as they answer; durable runs relaunch once more for the checks.
  Result<RelaunchOutcome> Relaunch(const std::string& crashed, double kill_s,
                                   const std::vector<PoolQuery>& pool,
                                   const std::vector<PoolQuery>& tail) {
    RelaunchOutcome out;
    std::error_code ec;
    const int relaunches = spec_.recovery_launches + (spec_.durable ? 1 : 0);
    for (int i = 0; i < relaunches; ++i) {
      const std::string data = DataDir("recover-" + std::to_string(i));
      if (spec_.durable) {
        fs::copy(crashed, data, fs::copy_options::recursive);
      } else {
        fs::create_directories(data);
      }
      LTAM_ASSIGN_OR_RETURN(std::unique_ptr<ServerProcess> server,
                            Launch(data, "recover-" + std::to_string(i)));
      if (i < spec_.recovery_launches) {
        out.wall_s.push_back(kill_s + server->ready_seconds());
        server->Kill9();
      } else {
        LTAM_ASSIGN_OR_RETURN(
            std::unique_ptr<ServiceClient> client,
            ServiceClient::Connect("127.0.0.1", server->port()));
        auto query = [&](const std::string& statement) {
          return client->Query(statement);
        };
        out.sweep = Sweep(pool, query);
        out.tail = Sweep(tail, query);
        client.reset();
        server->Kill9();
      }
      fs::remove_all(data, ec);
    }
    return out;
  }

  Status RunChecked(Pass* pass) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);

    std::vector<double> setups;
    std::string live;
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<ServerProcess> server,
                          Boot(&live, &setups));

    // Load. The boot generated the whole scenario; its memory peak is
    // not the load's.
    LTAM_ASSIGN_OR_RETURN(const uint64_t boot_rss, server->PeakRssBytes());
    LTAM_RETURN_IF_ERROR(server->ResetPeakRss());
    const LoadPlan plan = MakeLoadPlan(spec_, scenario_, args_.seconds);
    const double steal0 = ReadStealSeconds();
    LTAM_ASSIGN_OR_RETURN(const double cpu0, server->CpuSeconds());
    LTAM_ASSIGN_OR_RETURN(
        LoadResult load, RunLoadPhase(spec_, scenario_, plan, server->port()));
    LTAM_ASSIGN_OR_RETURN(const double cpu1, server->CpuSeconds());
    const double steal_s = ReadStealSeconds() - steal0;
    const double server_cpu_s = cpu1 - cpu0;

    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<ServiceClient> client,
                          ServiceClient::Connect("127.0.0.1", server->port()));
    MetricsSnapshot scrape;
    if (traced_) {
      LTAM_ASSIGN_OR_RETURN(scrape, client->Metrics());
    }
    LTAM_ASSIGN_OR_RETURN(const uint64_t rss, server->PeakRssBytes());

    AckedFrames acked;
    FrameDigests served;
    uint64_t acked_events = 0;
    Chronon newest = 0;
    for (const ConnectionLog& log : load.ingest) {
      acked.push_back(log.acked);
      served.push_back(log.digest);
    }
    for (const auto* frame : AckedFramesInOrder(scenario_, acked)) {
      acked_events += frame->size();
      for (const AccessEvent& e : *frame) newest = std::max(newest, e.time);
    }

    // The sweep: the concurrent pool, or a fresh one over the recent
    // window of the end state.
    std::vector<PoolQuery> pool = plan.pool;
    if (pool.empty()) {
      pool = MakeQueryPool(scenario_, spec_.sweep_queries,
                           spec_.schedule_seed + 1, spec_.query_window,
                           [newest](size_t) { return newest; });
    }
    const SweepOutcome sweep = SweepServer(client.get(), pool);
    client.reset();

    const double kill0 = NowSeconds();
    server->Kill9();
    const double kill_s = NowSeconds() - kill0;
    const uint64_t disk_bytes = spec_.durable ? DirectoryBytes(live) : 0;
    const std::vector<PoolQuery> tail = TailProbe(
        scenario_, acked, std::max<Chronon>(0, newest - spec_.retention_horizon / 2));
    const std::string ladder_copy = DataDir("crashed-ladder");
    if (spec_.durable && traced_) fs::copy(live, ladder_copy, fs::copy_options::recursive);
    LTAM_ASSIGN_OR_RETURN(RelaunchOutcome relaunch,
                          Relaunch(live, kill_s, pool, tail));

    // Counts: every frame, control call and sweep statement attempted.
    Samples ingest_ms;
    Samples query_ms;
    Samples checkpoint_ms;
    uint64_t first_send = UINT64_MAX;
    uint64_t last_done = 0;
    uint64_t sends = 0;
    uint64_t late = 0;
    uint64_t max_lag = 0;
    Status first_error = Status::OK();
    for (const ConnectionLog& log : load.ingest) {
      for (const OpRecord& r : log.ops) {
        AddSample(r, false, &ingest_ms);
        if (r.send_ns != 0 || r.ok) {
          first_send = std::min(first_send, r.send_ns);
          last_done = std::max(last_done, r.done_ns);
        }
      }
    }
    for (const auto* logs : {&load.ingest, &load.control}) {
      for (const ConnectionLog& log : *logs) {
        sends += log.sends;
        late += log.late_sends;
        max_lag = std::max(max_lag, log.max_lag_ns);
        if (!log.status.ok() && first_error.ok()) first_error = log.status;
      }
    }
    for (const ConnectionLog& log : load.control) {
      for (const OpRecord& r : log.ops) {
        AddSample(r, r.kind == OpKind::kCheckpoint,
                  r.kind == OpKind::kQuery ? &query_ms : &checkpoint_ms);
      }
    }
    const Samples& reads = spec_.concurrent_queries > 0 ? query_ms : sweep.ms;
    pass->attempted = ingest_ms.n() + query_ms.n() + checkpoint_ms.n() +
                      sweep.ms.n();
    pass->failed = ingest_ms.failed + query_ms.failed +
                   checkpoint_ms.failed + sweep.ms.failed;

    const std::string fs_type = FilesystemType(dir_);
    const double late_frac =
        sends == 0 ? 0.0 : static_cast<double>(late) / static_cast<double>(sends);
    pass->notes.push_back(
        "host: steal_s=" + Num(steal_s) + " fs=" + fs_type +
        " nproc=" + std::to_string(HostCores()) + " late_frac=" +
        Num(late_frac) + " (" + std::to_string(late) + "/" +
        std::to_string(sends) + " sends >1ms late) max_lag_ms=" +
        Num(static_cast<double>(max_lag) / 1e6));
    if (!first_error.ok()) {
      pass->notes.push_back("first operation error: " + first_error.ToString());
    }

    auto e2e = [&](const char* name, double v, const char* unit,
                   std::string base) {
      pass->e2e.push_back({name, v, unit, std::move(base)});
    };
    auto n_of = [](const Samples& s, const char* what) {
      return "n=" + std::to_string(s.n()) + " " + what + ", " +
             std::to_string(s.failed) + " failed";
    };
    std::vector<double> tmp = setups;
    std::string each_s;
    for (double s : setups) each_s += " " + Num(s);
    e2e("setup_s", *std::min_element(setups.begin(), setups.end()), "s",
        "fastest of " + std::to_string(setups.size()) + " launches (median " +
            Num(Median(&tmp)) + "):" + each_s);
    e2e("ingest_p50_ms", ingest_ms.Quantile(0.5), "ms", n_of(ingest_ms, "frames"));
    e2e("ingest_p99_ms", ingest_ms.Quantile(0.99), "ms", n_of(ingest_ms, "frames"));
    const char* read_what = spec_.concurrent_queries > 0
                                ? "queries under load"
                                : "sweep queries after load";
    e2e("query_p50_ms", reads.Quantile(0.5), "ms", n_of(reads, read_what));
    e2e("query_p99_ms", reads.Quantile(0.99), "ms", n_of(reads, read_what));
    e2e("checkpoint_p50_ms", checkpoint_ms.Quantile(0.5), "ms",
        n_of(checkpoint_ms, spec_.durable ? "checkpoints"
                                          : "checkpoints (in-memory no-op)"));
    tmp = relaunch.wall_s;
    e2e("recovery_s", Median(&tmp), "s",
        "median of " + std::to_string(relaunch.wall_s.size()) +
            (spec_.durable ? " recoveries of the crashed directory"
                           : " in-memory restarts"));
    const double ingest_window_s =
        last_done > first_send
            ? static_cast<double>(last_done - first_send) / 1e9
            : 0.0;
    e2e("ingest_eps",
        ingest_window_s > 0 ? static_cast<double>(acked_events) / ingest_window_s
                            : 0.0,
        "events/s",
        std::to_string(acked_events) + " events over " + Num(ingest_window_s) +
            " s");
    e2e("server_cpu_us_per_event",
        acked_events == 0
            ? 0.0
            : server_cpu_s * 1e6 / static_cast<double>(acked_events),
        "us/event",
        Num(server_cpu_s) + " server CPU-s during the load / " +
            std::to_string(acked_events) + " events");
    e2e("server_rss_mb", static_cast<double>(rss) / (1024.0 * 1024.0), "MiB",
        "VmHWM over the load (the boot's peak, " +
            Num(static_cast<double>(boot_rss) / (1024.0 * 1024.0)) +
            " MiB, reset before it)");

    // The gate: no numbers from a run whose answers are wrong.
    LTAM_ASSIGN_OR_RETURN(Reference ref, ReplayReference(scenario_, acked, 1));
    LTAM_RETURN_IF_ERROR(CheckDigests(acked, served, ref.digests));
    const std::vector<std::string> ref_sweep = SweepRuntime(*ref.runtime, pool);
    LTAM_RETURN_IF_ERROR(
        CheckSweep(pool, sweep.answers, ref_sweep, "end-of-run sweep"));
    if (spec_.durable) {
      LTAM_RETURN_IF_ERROR(CheckSweep(tail, relaunch.tail,
                                      SweepRuntime(*ref.runtime, tail),
                                      "acknowledged tail after kill -9 recovery"));
      LTAM_RETURN_IF_ERROR(CheckSweep(pool, relaunch.sweep, ref_sweep,
                                      "sweep after kill -9 recovery"));
    }
    for (const Metric& m : pass->e2e) {
      if (!std::isfinite(m.value) || m.value <= 0) {
        return Status::Internal("cannot report " + m.name + " = " +
                                Num(m.value) + " (" + m.base + ")");
      }
    }

    if (traced_) {
      LTAM_RETURN_IF_ERROR(WriteSpans(dir_ + "/spans.jsonl", load));
      LadderInput in;
      in.spec = &spec_;
      in.scenario = &scenario_;
      in.frames = AckedFramesInOrder(scenario_, acked);
      const double batches = static_cast<double>(
          ScrapedHistogram(scrape, "runtime.apply_batch") != nullptr
              ? ScrapedHistogram(scrape, "runtime.apply_batch")->count()
              : 0);
      in.frames_per_batch =
          batches > 0 ? ScrapedCounter(scrape, "ingest.frames") / batches : 1.0;
      in.end_state = ref.runtime.get();
      in.pool = pool;
      in.scratch_dir = DataDir("ladder-durable");
      in.crashed_copy = ladder_copy;
      fs::create_directories(in.scratch_dir);
      LTAM_ASSIGN_OR_RETURN(std::vector<Metric> ladder, RunLadder(in));
      AddLayerMetrics(load, scrape, sweep.ms, query_ms, disk_bytes,
                      acked_events, steal_s, late_frac, max_lag, pass);
      pass->layers.insert(pass->layers.end(), ladder.begin(), ladder.end());
      fs::remove_all(in.scratch_dir, ec);
      fs::remove_all(ladder_copy, ec);
    }
    fs::remove_all(live, ec);
    return Status::OK();
  }

  /// The scrape (S) and driver-span (D) per-layer metrics, and the
  /// attribution line.
  void AddLayerMetrics(const LoadResult& load, const MetricsSnapshot& scrape,
                       const Samples& sweep_ms, const Samples& query_ms,
                       uint64_t disk_bytes, uint64_t acked_events,
                       double steal_s, double late_frac, uint64_t max_lag,
                       Pass* pass) {
    auto add = [pass](std::string name, double v, std::string unit,
                      std::string base) {
      pass->layers.push_back({std::move(name), v, std::move(unit),
                              std::move(base)});
    };
    auto hist_n = [](const LatencyHistogram* h) {
      return "n=" + std::to_string(h == nullptr ? 0 : h->count()) + " (scrape)";
    };
    auto mean_of = [&](const char* name, double scale) {
      const LatencyHistogram* h = ScrapedHistogram(scrape, name);
      return h == nullptr || h->count() == 0 ? 0.0 : h->mean() / scale;
    };
    auto p99_of = [&](const char* name, double scale) {
      const LatencyHistogram* h = ScrapedHistogram(scrape, name);
      return h == nullptr || h->count() == 0
                 ? 0.0
                 : static_cast<double>(h->p99()) / scale;
    };
    const LatencyHistogram* e2e_h = ScrapedHistogram(scrape, "ingest.e2e");
    const LatencyHistogram* qw_h = ScrapedHistogram(scrape, "ingest.queue_wait");
    const LatencyHistogram* apply_h =
        ScrapedHistogram(scrape, "runtime.apply_batch");
    const LatencyHistogram* ckpt_h =
        ScrapedHistogram(scrape, "runtime.checkpoint");
    const LatencyHistogram* query_h = ScrapedHistogram(scrape, "query.run");
    const LatencyHistogram* sync_h = ScrapedHistogram(scrape, "wal.sync");
    const double batches =
        apply_h == nullptr ? 0.0 : static_cast<double>(apply_h->count());

    // Driver spans over the frames.
    double frames = 0, lag_ms = 0, submit_us = 0, wait_ms = 0, total_ms = 0;
    uint64_t sent_frames = 0;
    for (const ConnectionLog& log : load.ingest) {
      for (const OpRecord& r : log.ops) {
        if (r.send_ns != 0 || r.ok) ++sent_frames;
        if (!r.ok) continue;
        frames += 1;
        lag_ms += static_cast<double>(r.send_ns - r.sched_ns) / 1e6;
        submit_us += static_cast<double>(r.submit_end_ns - r.send_ns) / 1e3;
        wait_ms += static_cast<double>(r.done_ns - r.submit_end_ns) / 1e6;
        total_ms += static_cast<double>(r.done_ns - r.sched_ns) / 1e6;
      }
    }
    if (frames > 0) {
      lag_ms /= frames;
      submit_us /= frames;
      wait_ms /= frames;
      total_ms /= frames;
    }
    const double server_e2e_ms = mean_of("ingest.e2e", 1e6);
    const double unattributed_ms =
        total_ms - lag_ms - submit_us / 1e3 - server_e2e_ms;
    const std::string frame_base =
        "n=" + std::to_string(static_cast<uint64_t>(frames)) + " frames";

    add("service.queue_wait_ms_mean", mean_of("ingest.queue_wait", 1e6), "ms",
        hist_n(qw_h));
    add("service.queue_wait_ms_p99", p99_of("ingest.queue_wait", 1e6), "ms",
        hist_n(qw_h));
    add("service.e2e_ms_mean", server_e2e_ms, "ms", hist_n(e2e_h));
    add("service.e2e_ms_p99", p99_of("ingest.e2e", 1e6), "ms", hist_n(e2e_h));
    add("service.decode_us", mean_of("ingest.decode", 1e3), "us",
        hist_n(ScrapedHistogram(scrape, "ingest.decode")));
    add("service.write_us", mean_of("ingest.write", 1e3), "us",
        hist_n(ScrapedHistogram(scrape, "ingest.write")));
    add("service.apply_ms", mean_of("ingest.apply", 1e6), "ms",
        hist_n(ScrapedHistogram(scrape, "ingest.apply")));
    add("service.frames_per_batch",
        batches > 0 ? ScrapedCounter(scrape, "ingest.frames") / batches : 0,
        "frames", "ingest.frames / n=" + std::to_string(
                                              static_cast<uint64_t>(batches)) +
                      " runtime.apply_batch");
    add("service.events_per_batch",
        batches > 0 ? ScrapedCounter(scrape, "ingest.events") / batches : 0,
        "events", "ingest.events / n=" + std::to_string(
                                              static_cast<uint64_t>(batches)) +
                      " runtime.apply_batch");
    add("service.unattributed_ms", unattributed_ms, "ms",
        frame_base + ": client mean - sched lag - submit - server e2e mean");
    const double query_client_ms =
        spec_.concurrent_queries > 0 ? Mean(query_ms.ok_ms) : Mean(sweep_ms.ok_ms);
    add("service.query_wait_ms",
        (std::isfinite(query_client_ms) ? query_client_ms : 0.0) -
            mean_of("query.run", 1e6),
        "ms", "client query mean - query.run mean, " + hist_n(query_h));
    add("service.refused_frac",
        sent_frames == 0 ? 0.0
                         : ScrapedCounter(scrape, "ingest.quota_refusals") /
                               static_cast<double>(sent_frames),
        "fraction", "n=" + std::to_string(sent_frames) + " frames sent");
    add("client.submit_us", submit_us, "us", frame_base + " (SubmitBatch+Flush)");
    add("client.wait_ms", wait_ms, "ms", frame_base + " (flush to response)");
    add("loadgen.sched_lag_ms", lag_ms, "ms", frame_base);
    add("loadgen.late_frac", late_frac, "fraction", "sends >1ms late");
    add("loadgen.max_lag_ms", static_cast<double>(max_lag) / 1e6, "ms",
        "worst send lag");
    add("host.steal_s", steal_s, "s", "/proc/stat steal during the load");
    add("host.nproc", static_cast<double>(HostCores()), "cores", "online");
    add("runtime.apply_batch_us_mean", mean_of("runtime.apply_batch", 1e3),
        "us", hist_n(apply_h));
    add("runtime.apply_batch_count", batches, "count", "scrape");
    add("runtime.checkpoint_ms_mean", mean_of("runtime.checkpoint", 1e6), "ms",
        hist_n(ckpt_h));
    add("runtime.checkpoint_count",
        ckpt_h == nullptr ? 0.0 : static_cast<double>(ckpt_h->count()), "count",
        "scrape");
    add("query.run_ms_mean", mean_of("query.run", 1e6), "ms", hist_n(query_h));
    add("query.run_ms_p99", p99_of("query.run", 1e6), "ms", hist_n(query_h));
    add("storage.fsync_wait_ms", mean_of("ingest.fsync_wait", 1e6), "ms",
        hist_n(ScrapedHistogram(scrape, "ingest.fsync_wait")));
    add("storage.wal_sync_us", mean_of("wal.sync", 1e3), "us", hist_n(sync_h));
    add("storage.syncs_per_kevent",
        acked_events == 0 || sync_h == nullptr
            ? 0.0
            : static_cast<double>(sync_h->count()) * 1000.0 /
                  static_cast<double>(acked_events),
        "syncs/kevent",
        hist_n(sync_h) + " / " + std::to_string(acked_events) + " events");
    add("storage.disk_bytes_per_event",
        acked_events == 0 ? 0.0
                          : static_cast<double>(disk_bytes) /
                                static_cast<double>(acked_events),
        "B/event",
        std::to_string(disk_bytes) + " B in the directory at the kill / " +
            std::to_string(acked_events) + " acknowledged events");
    for (const auto& [metric, counter] :
         std::vector<std::pair<const char*, const char*>>{
             {"storage.checkpoint_dirty_segments", "checkpoint.dirty_segments"},
             {"storage.compaction_runs", "compaction.runs"},
             {"storage.dropped_segments", "retention.dropped_segments"}}) {
      add(metric, ScrapedCounter(scrape, counter), "count",
          std::string("scrape counter ") + counter);
    }
    for (const auto& [metric, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"storage.cold_segments", "count"},
             {"storage.cold_bytes", "B"},
             {"storage.resident_bytes", "B"}}) {
      add(metric, ScrapedGauge(scrape, metric), unit, "scrape gauge");
    }
    add("failed_frac",
        pass->attempted == 0 ? 0.0
                             : static_cast<double>(pass->failed) /
                                   static_cast<double>(pass->attempted),
        "fraction",
        std::to_string(pass->failed) + " of " +
            std::to_string(pass->attempted) + " operations");

    pass->notes.push_back(
        "attribution " + spec_.name + ": client mean " + Num(total_ms) +
        " ms = sched lag " + Num(lag_ms) + " ms + client submit " +
        Num(submit_us / 1e3) + " ms + server ingest.e2e " + Num(server_e2e_ms) +
        " ms + unattributed " + Num(unattributed_ms) + " ms (client: " +
        frame_base + "; server: " + hist_n(e2e_h) + ")");
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  const LoadScenario& scenario_;
  const bool traced_;
  const std::string dir_;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14s %-12s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.base.c_str());
  }
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) +
           "}";
  }
  return out + "}}";
}

void WriteArtifact(const Args& args, const std::vector<const Pass*>& passes,
                   const std::string& line) {
  FILE* f = std::fopen((args.work_dir + "/result.json").c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                  "\"trace\": %d, \"passes\": [",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed),
               Num(args.seconds).c_str(), args.trace);
  for (size_t p = 0; p < passes.size(); ++p) {
    std::fprintf(f, "%s{\"verdict\": %s, \"notes\": [", p ? ", " : "",
                 JsonString(passes[p]->verdict.ToString()).c_str());
    for (size_t i = 0; i < passes[p]->notes.size(); ++i) {
      std::fprintf(f, "%s%s", i ? ", " : "",
                   JsonString(passes[p]->notes[i]).c_str());
    }
    std::fprintf(f, "], \"metrics\": [");
    bool first = true;
    for (const auto* list : {&passes[p]->e2e, &passes[p]->layers}) {
      for (const Metric& m : *list) {
        std::fprintf(f, "%s{\"name\": %s, \"value\": %s, \"unit\": %s, "
                        "\"base\": %s}",
                     first ? "" : ", ", JsonString(m.name).c_str(),
                     Num(m.value).c_str(), JsonString(m.unit).c_str(),
                     JsonString(m.base).c_str());
        first = false;
      }
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "], \"result\": %s}\n", line.c_str());
  std::fclose(f);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string key = a;
    std::string value;
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      key = a.substr(0, eq);
      value = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--serve") {
      args->serve = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->serve.empty() &&
         !args->work_dir.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ltam_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --serve=PATH --work-dir=DIR\n");
    return 2;
  }
  Result<WorkloadSpec> spec = MakeWorkload(args.workload, args.seed, args.seconds);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  Result<LoadScenario> scenario =
      GenerateLoadScenario(spec->family, spec->scenario);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);

  Pass untraced = PassRunner(args, *spec, *scenario, false).Run();
  std::vector<const Pass*> passes = {&untraced};
  Pass traced;
  if (args.trace == 1 && untraced.verdict.ok()) {
    traced = PassRunner(args, *spec, *scenario, true).Run();
    passes.push_back(&traced);
  }
  for (const Pass* p : passes) {
    for (const std::string& note : p->notes) std::printf("%s\n", note.c_str());
  }
  Status verdict = untraced.verdict;
  if (verdict.ok() && args.trace == 1) verdict = traced.verdict;
  if (!verdict.ok()) {
    std::fprintf(stderr, "ltam_perfbench: %s run FAILED: %s\n",
                 args.workload.c_str(), verdict.ToString().c_str());
    const std::string line =
        ResultLine(false, untraced.attempted, untraced.failed, {});
    WriteArtifact(args, passes, line);
    std::printf("%s\n", line.c_str());
    return 1;
  }

  std::vector<Metric> reported;
  const Pass& last = args.trace == 1 ? traced : untraced;
  PrintMetrics(("end-to-end (" + args.workload + ", seed " +
                std::to_string(args.seed) + ", untraced pass)")
                   .c_str(),
               untraced.e2e);
  if (args.trace == 0) {
    for (const Metric& m : untraced.e2e) {
      if (IsGated(m.name)) reported.push_back(m);
    }
  } else {
    reported = traced.layers;
    for (const Metric& m : untraced.e2e) {
      if (!IsGated(m.name)) reported.push_back(m);
    }
    for (const Metric& m : untraced.e2e) {
      const Metric* t = Find(traced.e2e, m.name);
      reported.push_back({"overhead." + m.name, t->value - m.value, m.unit,
                          "traced " + Num(t->value) + " - untraced " +
                              Num(m.value)});
    }
    PrintMetrics("per-layer (traced pass)", reported);
  }
  const std::string line =
      ResultLine(true, last.attempted, last.failed, reported);
  WriteArtifact(args, passes, line);
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace ltam::perfbench

int main(int argc, char** argv) { return ltam::perfbench::Main(argc, argv); }
