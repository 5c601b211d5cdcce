// Copyright 2026 The LTAM Authors.
//
// ltam_serve: the LTAM enforcement runtime as a network service. Loads
// a policy script (or the built-in demo policy, or a load-scenario
// world), derives the scripted rules into it, opens an AccessRuntime
// over it, and serves the wire protocol on TCP: remote clients stream
// access events (coalesced across connections into shared batches) and
// movement queries, and get back the same decisions, alerts, and
// answers a local caller would see.
//
// A boot commits at most one checkpoint. A fresh durable directory is
// cut once, as epoch 0, with the rules already derived; a recovered
// directory keeps the rules, derived authorizations and spent entries
// its snapshot carries, and commits one recovery cut only if its logs
// held records to replay. After the listening banner the server prints
// one `startup` line with the milliseconds spent building the world,
// deriving rules, opening the runtime (with the records replayed and
// whether recovery committed a cut) and starting the server.
//
// Run: ./build/examples/ltam_serve [flags]
//   --port=N          TCP port (default 7447; 0 picks one and prints it)
//   --host=ADDR       listen address (default 127.0.0.1)
//   --shards=N        subject shards of the batch pipeline, 1..256
//                     (default 1; shard 0 runs on the ingest thread,
//                     each further shard on its own worker)
//   --durable=DIR     crash-safe runtime rooted at DIR (must exist)
//   --policy=FILE     policy script (default: built-in demo policy)
//   --scenario=NAME   boot a load-scenario world instead of a policy
//                     (surge|contact|churn|tenant|replication);
//                     ltam_load pointed
//                     at this server with the same scenario flags
//                     generates traffic for exactly this world
//   --scenario-seed=N      scenario world seed (default 2026)
//   --scenario-subjects=N  scenario subject count (default 96)
//   --scenario-events=N    scenario total events (default 4096; sizes
//                          the authorization horizon, so it must match
//                          the load driver)
//   --scenario-tenants=N   tenant count for --scenario=tenant
//   --sync-mode=M     durable write path; pipelined is the one mode
//                     (and the default): the runtime's one log thread
//                     writes and fsyncs every shard's records (a file
//                     once per 4 batches or 1 MiB, and whenever its
//                     queue drains), and a batch is answered only once
//                     its fsync has landed. Any other mode exits 2
//   --retention-horizon-s=N  drop sealed history whose stays ended
//                          more than N chronons (~seconds of stream
//                          time) before the newest event, judged at
//                          each checkpoint. Requires --durable;
//                          implies --retention-hot-events=4096 unless
//                          set
//   --retention-hot-events=N seal a shard's history into a columnar
//                          cold segment once it exceeds N hot events
//                          (0 = never seal, the default)
//   --metrics-dump-s=N     dump a metrics summary to stdout every N
//                          seconds (0 = never, the default); the same
//                          numbers are always scrapable over the wire
//                          via `ltam_shell metrics`
//   --trace-threshold-us=N log a per-stage span timeline for any ingest
//                          frame slower than N microseconds end-to-end
//                          (rate-limited; 0 disables, the default)
//   --log-level=L     debug|info|warning|error (default info)
//   --replica-of=H:P  serve as a read-only replica following the
//                     primary at H:P: writes are refused with a
//                     redirect, reads answer from the replicated state.
//                     Requires --durable (any --shards value), and
//                     BOTH sides must boot the same
//                     --policy/--scenario flags (the stream carries
//                     only WAL deltas, not the initial world). A
//                     `promote` through ltam_shell turns this server
//                     into a primary (epoch-fenced against its old
//                     upstream); `repoint` re-targets the upstream.
//
// Every numeric flag is parsed strictly: a value that is not a whole
// number in the flag's range is a usage error that names the flag and
// exits 2.
//
// Shutdown discipline (shared with ltam_shell): SIGINT/SIGTERM stop the
// server, then a durable runtime checkpoints before the process exits,
// so the next open recovers the serving state instead of replaying the
// whole WAL tail.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <string>

#include "runtime/access_runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "service/shutdown.h"
#include "sim/workload.h"
#include "storage/policy_script.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kUint32Max = std::numeric_limits<uint32_t>::max();

/// The value of the numeric flag `arg` ("--name=VALUE", the value at
/// `prefix`), which must be a whole number in [lo, hi]. Anything else
/// is a usage error: it names the flag and exits 2.
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

}  // namespace

int main(int argc, char** argv) {
  using namespace ltam;  // NOLINT: example brevity.

  InstallShutdownSignalHandlers();

  std::string policy_path;
  std::string scenario_name;
  ScenarioOptions scenario_options;
  uint32_t metrics_dump_s = 0;
  // One registry for the whole process: the server's ingest stages, the
  // runtime's apply/checkpoint, the WAL fsyncs, and replica lag all land
  // here, so one scrape shows the full request path.
  MetricsRegistry metrics;
  RuntimeOptions runtime_options;
  runtime_options.metrics = &metrics;
  ServerOptions server_options;
  server_options.port = 7447;
  server_options.metrics = &metrics;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](size_t prefix) { return arg.substr(prefix); };
    if (arg.rfind("--port=", 0) == 0) {
      Result<uint16_t> port = ParsePort(value(7));
      if (!port.ok()) {
        std::fprintf(stderr, "--port: %s\n", port.status().ToString().c_str());
        return 2;
      }
      server_options.port = *port;
    } else if (arg.rfind("--host=", 0) == 0) {
      server_options.host = value(7);
    } else if (arg.rfind("--shards=", 0) == 0) {
      // Each shard past the first is an OS thread.
      runtime_options.num_shards =
          static_cast<uint32_t>(NumericFlag(arg, 9, 1, 256));
    } else if (arg.rfind("--durable=", 0) == 0) {
      runtime_options.durable_dir = value(10);
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy_path = value(9);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario_name = value(11);
    } else if (arg.rfind("--scenario-seed=", 0) == 0) {
      scenario_options.seed =
          static_cast<uint64_t>(NumericFlag(arg, 16, 0, kInt64Max));
    } else if (arg.rfind("--scenario-subjects=", 0) == 0) {
      scenario_options.subjects =
          static_cast<uint32_t>(NumericFlag(arg, 20, 1, kUint32Max));
    } else if (arg.rfind("--scenario-events=", 0) == 0) {
      scenario_options.total_events =
          static_cast<size_t>(NumericFlag(arg, 18, 0, kInt64Max));
    } else if (arg.rfind("--scenario-tenants=", 0) == 0) {
      scenario_options.tenants =
          static_cast<uint32_t>(NumericFlag(arg, 19, 1, kUint32Max));
    } else if (arg.rfind("--retention-horizon-s=", 0) == 0) {
      runtime_options.retention.horizon = NumericFlag(arg, 22, 0, kInt64Max);
    } else if (arg.rfind("--retention-hot-events=", 0) == 0) {
      runtime_options.retention.max_hot_events =
          static_cast<size_t>(NumericFlag(arg, 23, 0, kInt64Max));
    } else if (arg.rfind("--sync-mode=", 0) == 0) {
      Result<SyncMode> mode = ParseSyncMode(value(12));
      if (!mode.ok()) {
        std::fprintf(stderr, "--sync-mode: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      runtime_options.durability.mode = *mode;
    } else if (arg.rfind("--metrics-dump-s=", 0) == 0) {
      metrics_dump_s =
          static_cast<uint32_t>(NumericFlag(arg, 17, 0, kUint32Max));
    } else if (arg.rfind("--trace-threshold-us=", 0) == 0) {
      server_options.trace_threshold_us =
          static_cast<uint64_t>(NumericFlag(arg, 21, 0, kInt64Max));
    } else if (arg.rfind("--log-level=", 0) == 0) {
      Result<LogLevel> level = ParseLogLevel(value(12));
      if (!level.ok()) {
        std::fprintf(stderr, "%s\n", level.status().ToString().c_str());
        return 2;
      }
      SetLogLevel(*level);
    } else if (arg.rfind("--replica-of=", 0) == 0) {
      std::string host;
      uint16_t port = 0;
      Status endpoint = ParseEndpoint(value(13), &host, &port);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "--replica-of: %s\n",
                     endpoint.ToString().c_str());
        return 2;
      }
      server_options.replica_of = host + ":" + std::to_string(port);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: ltam_serve [--port=N] "
                   "[--host=ADDR] [--shards=N] [--durable=DIR] "
                   "[--policy=FILE] [--scenario=NAME] [--scenario-seed=N] "
                   "[--scenario-subjects=N] [--scenario-events=N] "
                   "[--scenario-tenants=N] [--sync-mode=M] "
                   "[--retention-horizon-s=N] "
                   "[--retention-hot-events=N] [--metrics-dump-s=N] "
                   "[--trace-threshold-us=N] [--log-level=L] "
                   "[--replica-of=HOST:PORT]\n",
                   arg.c_str());
      return 2;
    }
  }

  // A horizon with no seal threshold would be inert (retention drops
  // only sealed segments); default the threshold rather than reject.
  if (runtime_options.retention.horizon > 0 &&
      runtime_options.retention.max_hot_events == 0) {
    runtime_options.retention.max_hot_events = 4096;
  }

  const uint64_t boot_ns = MonotonicNowNs();
  SystemState initial;
  if (!scenario_name.empty()) {
    if (!policy_path.empty()) {
      std::fprintf(stderr, "--policy and --scenario are exclusive\n");
      return 2;
    }
    Result<ScenarioFamily> family = ParseScenarioFamily(scenario_name);
    if (!family.ok()) {
      std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
      return 2;
    }
    Result<LoadScenario> scenario =
        GenerateScenarioWorld(*family, scenario_options);
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario error: %s\n",
                   scenario.status().ToString().c_str());
      return 2;
    }
    initial = std::move(scenario->initial);
    runtime_options.engine = scenario->engine;
  } else {
    Result<SystemState> state_or =
        policy_path.empty() ? ParsePolicyScript(DemoPolicyScript())
                            : LoadPolicyScript(policy_path);
    if (!state_or.ok()) {
      std::fprintf(stderr, "policy error: %s\n",
                   state_or.status().ToString().c_str());
      return 1;
    }
    initial = std::move(state_or).ValueOrDie();
  }
  const uint64_t world_ns = MonotonicNowNs();
  Status rules = DeriveScriptedRules(&initial);
  if (!rules.ok()) {
    std::fprintf(stderr, "rule error: %s\n", rules.ToString().c_str());
    return 1;
  }
  const uint64_t rules_ns = MonotonicNowNs();
  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(std::move(initial), runtime_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "runtime error: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<AccessRuntime> runtime = std::move(opened).ValueOrDie();
  const uint64_t open_ns = MonotonicNowNs();
  // Read before Start(), after which the server's threads own the runtime.
  const RuntimeStats stats = runtime->Stats();
  const uint64_t start_ns = MonotonicNowNs();
  ServiceServer server(runtime.get(), server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server error: %s\n", started.ToString().c_str());
    return 1;
  }
  const uint64_t started_ns = MonotonicNowNs();
  std::printf(
      "ltam_serve: listening on %s:%u (%u shard%s, %s, %s sync)\n",
      server_options.host.c_str(), server.bound_port(), stats.num_shards,
      stats.num_shards == 1 ? "" : "s",
      stats.durable ? "durable" : "in-memory",
      SyncModeToString(runtime_options.durability.mode));
  if (!server_options.replica_of.empty()) {
    std::printf("ltam_serve: replica of %s (epoch %llu, read-only)\n",
                server_options.replica_of.c_str(),
                static_cast<unsigned long long>(stats.replication_epoch));
  }
  if (!scenario_name.empty()) {
    std::printf("ltam_serve: scenario %s (seed=%llu subjects=%u events=%zu)\n",
                scenario_name.c_str(),
                static_cast<unsigned long long>(scenario_options.seed),
                scenario_options.subjects, scenario_options.total_events);
  }
  const AccessRuntime::RecoveryReport recovery = runtime->recovery();
  std::string open_report = stats.durable ? "fresh directory" : "in memory";
  if (recovery.recovered) {
    open_report =
        "recovered, " + std::to_string(recovery.replayed_records) +
        " records replayed, " +
        (recovery.replayed_records > 0
             ? "recovery cut to epoch " + std::to_string(stats.epoch)
             : "no recovery cut");
  }
  auto ms = [](uint64_t from, uint64_t to) { return (to - from) / 1e6; };
  std::printf(
      "ltam_serve: startup world %.2f ms, rules %.2f ms, open %.2f ms (%s), "
      "start %.2f ms\n",
      ms(boot_ns, world_ns), ms(world_ns, rules_ns), ms(rules_ns, open_ns),
      open_report.c_str(), ms(start_ns, started_ns));
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM; the handler latches the flag and this
  // loop notices within a beat. The same loop drives the optional
  // periodic metrics dump (naps are 50ms, so the cadence is honest to
  // within one beat).
  uint64_t naps = 0;
  const uint64_t naps_per_dump =
      metrics_dump_s > 0 ? metrics_dump_s * 20ull : 0;
  while (!ShutdownRequested()) {
    struct timespec nap = {0, 50 * 1000 * 1000};  // 50ms.
    nanosleep(&nap, nullptr);
    if (naps_per_dump != 0 && ++naps % naps_per_dump == 0) {
      std::fputs(MetricsSummaryText(metrics.Snapshot()).c_str(), stdout);
      std::fflush(stdout);
    }
  }

  std::printf("ltam_serve: shutting down\n");
  server.Stop();  // Retires a replica's link: nothing lands after this.
  if (!CheckpointBeforeExit(runtime.get()).ok()) return 1;
  std::printf("ltam_serve: bye\n");
  return 0;
}
