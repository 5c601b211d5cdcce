// Copyright 2026 The LTAM Authors.
//
// ltam_load: open-loop load generator against a live ltam_serve.
//
// Boot a server on one side with a scenario world:
//   ./build/examples/ltam_serve --port=7447 --scenario=surge
// then drive the matching traffic from the other:
//   ./build/examples/ltam_load --port=7447 --scenario=surge --rate=4000
//       --duration-s=5 --connections=4 --json-out=load.json
//
// Both processes construct the identical world from (scenario, seed,
// subjects, events) — see sim/workload.h — so subject and location ids
// agree without any world serialization on the wire. Arrivals follow a
// deterministic seeded Poisson schedule at --rate events/sec; latency
// is measured from each frame's SCHEDULED arrival time (coordinated
// omission is not possible by construction: a server that falls behind
// accrues queueing delay in the recorded percentiles).
//
// Flags:
//   --host=ADDR --port=N      server endpoint (default 127.0.0.1:7447)
//   --query-host=ADDR --query-port=N
//                             route the scenario's query mix to this
//                             endpoint (a read replica) over dedicated
//                             connections; ingest keeps flowing to
//                             --host. Both or neither.
//   --scenario=NAME           surge|contact|churn|tenant|replication
//                             (default surge)
//   --rate=N                  target events/sec across connections
//   --duration-s=N            run length; total events = rate * duration
//                             (both finite and > 0)
//   --connections=N           worker threads = TCP connections, 1..1024
//   --events-per-frame=N      events per scheduled arrival (default 32,
//                             at most the wire's per-frame ceiling)
//   --max-in-flight=N         pipelined frames per connection (default 64)
//   --scenario-seed=N --scenario-subjects=N --scenario-tenants=N
//                             world knobs; must match the server's (same
//                             ranges as ltam_serve's)
//   --schedule-seed=N         arrival-schedule seed (driver-only)
//   --json-out=FILE           write a google-benchmark-shaped report;
//                             each row carries the full histogram
//                             bucket dump (count/sum/min/max plus every
//                             non-zero bucket), so reports from split
//                             runs merge offline without losing the
//                             tail (LatencyHistogram::FromParts
//                             reconstructs, Merge combines)
//   --log-level=L             debug|info|warning|error (default info)
//
// Exit code: 0 on a completed run (refusals included — overload is a
// measurement, not an error), 2 on a usage error (an unknown flag or a
// value that does not parse whole and in range, reported before any
// dial), other nonzero codes on harness/connection failures.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "loadgen/loadgen.h"
#include "service/client.h"
#include "sim/workload.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kUint32Max = std::numeric_limits<uint32_t>::max();

/// The value of the numeric flag `arg` ("--name=VALUE", the value at
/// `prefix`), which must be a whole number in [lo, hi] (the ranges of
/// the world-shaping flags are ltam_serve's). Anything else is a usage
/// error: it names the flag and exits 2.
int64_t NumericFlag(const std::string& arg, size_t prefix, int64_t lo,
                    int64_t hi) {
  ltam::Result<int64_t> parsed =
      ltam::ParseInt64InRange(arg.substr(prefix), lo, hi);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", arg.substr(0, prefix - 1).c_str(),
                 parsed.status().message().c_str());
    std::exit(2);
  }
  return *parsed;
}

/// Like NumericFlag, for a finite number > 0.
double PositiveFlag(const std::string& arg, size_t prefix) {
  ltam::Result<double> parsed = ltam::ParseDouble(arg.substr(prefix));
  if (!parsed.ok() || !std::isfinite(*parsed) || *parsed <= 0) {
    std::fprintf(stderr, "%s: '%s' is not a finite number > 0\n",
                 arg.substr(0, prefix - 1).c_str(),
                 arg.substr(prefix).c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ltam;  // NOLINT: example brevity.

  std::string scenario_name = "surge";
  ScenarioOptions scenario_options;
  LoadGenOptions load_options;
  double duration_s = 2.0;
  std::string json_out;
  // A bad port names its flag; the caller exits 2.
  auto parse_port = [](const char* flag, const std::string& text,
                       uint16_t* out) {
    Result<uint16_t> port = ParsePort(text);
    if (!port.ok()) {
      std::fprintf(stderr, "%s: %s\n", flag, port.status().ToString().c_str());
      return false;
    }
    *out = *port;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](size_t prefix) { return arg.substr(prefix); };
    if (arg.rfind("--host=", 0) == 0) {
      load_options.host = value(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_port("--port", value(7), &load_options.port)) return 2;
    } else if (arg.rfind("--query-host=", 0) == 0) {
      load_options.query_host = value(13);
    } else if (arg.rfind("--query-port=", 0) == 0) {
      if (!parse_port("--query-port", value(13), &load_options.query_port)) {
        return 2;
      }
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario_name = value(11);
    } else if (arg.rfind("--rate=", 0) == 0) {
      load_options.rate = PositiveFlag(arg, 7);
    } else if (arg.rfind("--duration-s=", 0) == 0) {
      duration_s = PositiveFlag(arg, 13);
    } else if (arg.rfind("--connections=", 0) == 0) {
      load_options.connections =
          static_cast<uint32_t>(NumericFlag(arg, 14, 1, 1024));
    } else if (arg.rfind("--events-per-frame=", 0) == 0) {
      scenario_options.events_per_frame =
          static_cast<size_t>(NumericFlag(arg, 19, 1, kMaxWireBatchEvents));
    } else if (arg.rfind("--max-in-flight=", 0) == 0) {
      load_options.max_in_flight =
          static_cast<size_t>(NumericFlag(arg, 16, 1, kUint32Max));
    } else if (arg.rfind("--scenario-seed=", 0) == 0) {
      scenario_options.seed =
          static_cast<uint64_t>(NumericFlag(arg, 16, 0, kInt64Max));
    } else if (arg.rfind("--scenario-subjects=", 0) == 0) {
      scenario_options.subjects =
          static_cast<uint32_t>(NumericFlag(arg, 20, 1, kUint32Max));
    } else if (arg.rfind("--scenario-tenants=", 0) == 0) {
      scenario_options.tenants =
          static_cast<uint32_t>(NumericFlag(arg, 19, 1, kUint32Max));
    } else if (arg.rfind("--schedule-seed=", 0) == 0) {
      load_options.schedule_seed =
          static_cast<uint64_t>(NumericFlag(arg, 16, 0, kInt64Max));
    } else if (arg.rfind("--checkpoint-every-frames=", 0) == 0) {
      load_options.checkpoint_every_frames =
          static_cast<size_t>(NumericFlag(arg, 26, 0, kInt64Max));
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = value(11);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      Result<LogLevel> level = ParseLogLevel(value(12));
      if (!level.ok()) {
        std::fprintf(stderr, "%s\n", level.status().ToString().c_str());
        return 2;
      }
      SetLogLevel(*level);
    } else {
      std::fprintf(
          stderr,
          "unknown flag '%s'\nusage: ltam_load [--host=ADDR] [--port=N] "
          "[--query-host=ADDR] [--query-port=N] "
          "[--scenario=NAME] [--rate=N] [--duration-s=N] [--connections=N] "
          "[--events-per-frame=N] [--max-in-flight=N] [--scenario-seed=N] "
          "[--scenario-subjects=N] [--scenario-tenants=N] "
          "[--schedule-seed=N] [--checkpoint-every-frames=N] "
          "[--json-out=FILE] [--log-level=L]\n",
          arg.c_str());
      return 2;
    }
  }

  Result<ScenarioFamily> family = ParseScenarioFamily(scenario_name);
  if (!family.ok()) {
    std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
    return 2;
  }
  scenario_options.streams = load_options.connections;
  scenario_options.total_events =
      static_cast<size_t>(load_options.rate * duration_s);

  Result<LoadScenario> scenario =
      GenerateLoadScenario(*family, scenario_options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario error: %s\n",
                 scenario.status().ToString().c_str());
    return 2;
  }

  std::printf(
      "ltam_load: %s against %s:%u — %zu events @ %.0f/s over %u "
      "connection%s\n",
      scenario_name.c_str(), load_options.host.c_str(), load_options.port,
      scenario->total_events, load_options.rate, load_options.connections,
      load_options.connections == 1 ? "" : "s");
  if (!load_options.query_host.empty()) {
    std::printf("ltam_load: queries routed to %s:%u\n",
                load_options.query_host.c_str(), load_options.query_port);
  }
  std::fflush(stdout);

  Result<LoadReport> report_or = RunLoad(*scenario, load_options);
  if (!report_or.ok()) {
    std::fprintf(stderr, "load error: %s\n",
                 report_or.status().ToString().c_str());
    return 1;
  }
  const LoadReport& r = *report_or;

  std::printf("ltam_load: ingest  %s\n", r.ingest_latency.ToString().c_str());
  if (r.query_latency.count() > 0) {
    std::printf("ltam_load: queries %s\n",
                r.query_latency.ToString().c_str());
  }
  std::printf(
      "ltam_load: %llu frames (%llu events: %llu grant / %llu deny), "
      "%llu quota-refused frames, %llu queries, %llu checkpoints, "
      "%llu alerts\n",
      static_cast<unsigned long long>(r.frames_sent),
      static_cast<unsigned long long>(r.events_sent),
      static_cast<unsigned long long>(r.grants),
      static_cast<unsigned long long>(r.denials),
      static_cast<unsigned long long>(r.quota_refused_frames),
      static_cast<unsigned long long>(r.queries_sent),
      static_cast<unsigned long long>(r.checkpoints),
      static_cast<unsigned long long>(r.alerts));
  std::printf(
      "ltam_load: achieved %.0f events/s over %.2fs (%llu late sends, "
      "max schedule lag %.3fms)\n",
      r.achieved_event_rate, r.wall_seconds,
      static_cast<unsigned long long>(r.late_sends),
      static_cast<double>(r.max_sched_lag_ns) / 1e6);

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    auto ms = [](uint64_t nanos) {
      return static_cast<double>(nanos) / 1e6;
    };
    // The google-benchmark JSON shape the BENCH_pr*.json trajectory
    // uses: one row per histogram, latency percentiles as counters.
    std::fprintf(f,
                 "{\n \"context\": {\n"
                 "  \"executable\": \"ltam_load\",\n"
                 "  \"host_nproc\": %u,\n"
                 "  \"scenario\": \"%s\",\n"
                 "  \"target_rate\": %.1f,\n"
                 "  \"duration_s\": %.2f,\n"
                 "  \"connections\": %u,\n"
                 "  \"open_loop\": true\n },\n \"benchmarks\": [\n",
                 std::thread::hardware_concurrency(), scenario_name.c_str(),
                 load_options.rate, duration_s, load_options.connections);
    auto emit = [&](const char* kind, const LatencyHistogram& h,
                    bool last) {
      std::fprintf(
          f,
          "  {\n   \"name\": \"LOAD_%s_%s/rate:%.0f/conn:%u\",\n"
          "   \"run_type\": \"iteration\",\n   \"iterations\": %llu,\n"
          "   \"real_time\": %.3f,\n   \"time_unit\": \"ms\",\n"
          "   \"items_per_second\": %.1f,\n"
          "   \"p50_ms\": %.3f,\n   \"p90_ms\": %.3f,\n"
          "   \"p99_ms\": %.3f,\n   \"p999_ms\": %.3f,\n"
          "   \"max_ms\": %.3f,\n   \"mean_ms\": %.3f,\n"
          "   \"events_sent\": %llu,\n   \"grants\": %llu,\n"
          "   \"denials\": %llu,\n   \"quota_refused_frames\": %llu,\n"
          "   \"quota_refused_events\": %llu,\n   \"queries\": %llu,\n"
          "   \"checkpoints\": %llu,\n   \"late_sends\": %llu,\n"
          "   \"max_sched_lag_ms\": %.3f,\n",
          scenario_name.c_str(), kind, load_options.rate,
          load_options.connections,
          static_cast<unsigned long long>(h.count()),
          r.wall_seconds * 1e3, r.achieved_event_rate, ms(h.p50()),
          ms(h.p90()), ms(h.p99()), ms(h.p999()), ms(h.max()),
          h.mean() / 1e6,
          static_cast<unsigned long long>(r.events_sent),
          static_cast<unsigned long long>(r.grants),
          static_cast<unsigned long long>(r.denials),
          static_cast<unsigned long long>(r.quota_refused_frames),
          static_cast<unsigned long long>(r.quota_refused_events),
          static_cast<unsigned long long>(r.queries_sent),
          static_cast<unsigned long long>(r.checkpoints),
          static_cast<unsigned long long>(r.late_sends),
          static_cast<double>(r.max_sched_lag_ns) / 1e6);
      // The full histogram, losslessly: split runs merge offline via
      // LatencyHistogram::FromParts + Merge without flattening the
      // tail into precomputed percentiles.
      std::fprintf(
          f,
          "   \"hist_count\": %llu,\n   \"hist_sum_ns\": %llu,\n"
          "   \"hist_min_ns\": %llu,\n   \"hist_max_ns\": %llu,\n"
          "   \"hist_buckets\": [",
          static_cast<unsigned long long>(h.count()),
          static_cast<unsigned long long>(h.sum()),
          static_cast<unsigned long long>(h.count() > 0 ? h.min() : 0),
          static_cast<unsigned long long>(h.max()));
      bool first_bucket = true;
      for (const auto& [index, bucket_count] : h.NonZeroBuckets()) {
        std::fprintf(f, "%s[%u,%llu]", first_bucket ? "" : ",", index,
                     static_cast<unsigned long long>(bucket_count));
        first_bucket = false;
      }
      std::fprintf(f, "]\n  }%s\n", last ? "" : ",");
    };
    const bool has_queries = r.query_latency.count() > 0;
    emit("ingest", r.ingest_latency, !has_queries);
    if (has_queries) emit("query", r.query_latency, true);
    std::fprintf(f, " ]\n}\n");
    std::fclose(f);
    std::printf("ltam_load: wrote %s\n", json_out.c_str());
  }
  return 0;
}
