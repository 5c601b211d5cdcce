// Copyright 2026 The LTAM Authors.
//
// An administrator shell: loads a policy script (or the built-in demo
// policy) into an AccessRuntime, derives the scripted rules inside the
// runtime's mutation window, then evaluates query-language statements
// from stdin — the interactive face of Figure 3's query engine,
// answering over the runtime's MovementView.
//
// Run: ./build/examples/ltam_shell [policy.ltam] [--durable=DIR] [--shards=N]
// (--shards takes a whole number in 1..256; anything else exits 2)
//
// Shell commands besides query statements:
//   connect <host:port>   switch to remote mode: statements are sent to
//                         an ltam_serve endpoint over the wire protocol
//   disconnect            back to the local runtime
//   stats                 runtime counters (local or remote — the same
//                         numbers either way; the wire carries the
//                         runtime's own RuntimeStats). Against a
//                         primary with attached replicas, also renders
//                         each replica's shipped-vs-durable lag gauge.
//   metrics [prom]        telemetry snapshot: per-stage latency
//                         histograms, counters, gauges. Summary lines
//                         by default; `metrics prom` prints the
//                         Prometheus text exposition instead. Remote
//                         mode scrapes the server over the wire.
//   checkpoint            persist the runtime (local or remote)
//   promote               remote only: promote a replica server to
//                         primary (bumps its replication epoch; the
//                         fenced old primary's stream is refused)
//   repoint <host:port>   remote only: re-target a replica server's
//                         upstream (the survivor-reconnect step)
//   quit / exit           leave (Ctrl-C and EOF behave the same)
//
// Shutdown discipline: Ctrl-C, SIGTERM, EOF, and quit all fall out of
// the input loop and checkpoint a durable runtime before exiting, so
// the next open recovers the exit state instead of replaying the WAL.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "runtime/access_runtime.h"
#include "query/query_language.h"
#include "service/client.h"
#include "service/shutdown.h"
#include "storage/policy_script.h"
#include "telemetry/metrics.h"
#include "util/string_util.h"

using namespace ltam;  // NOLINT: example brevity.

int main(int argc, char** argv) {
  InstallShutdownSignalHandlers();

  std::string policy_path;
  MetricsRegistry metrics;
  RuntimeOptions options;
  options.metrics = &metrics;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--durable=", 0) == 0) {
      options.durable_dir = arg.substr(10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      // Each shard past the first is an OS thread.
      Result<int64_t> shards = ParseInt64(arg.substr(9));
      if (!shards.ok() || *shards < 1 || *shards > 256) {
        std::fprintf(stderr, "--shards: '%s' is not a number in 1..256\n",
                     arg.c_str() + 9);
        return 2;
      }
      options.num_shards = static_cast<uint32_t>(*shards);
    } else {
      policy_path = arg;
    }
  }

  Result<SystemState> state_or = policy_path.empty()
                                     ? ParsePolicyScript(DemoPolicyScript())
                                     : LoadPolicyScript(policy_path);
  if (!state_or.ok()) {
    std::fprintf(stderr, "policy error: %s\n",
                 state_or.status().ToString().c_str());
    return 1;
  }

  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(std::move(state_or).ValueOrDie(), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "runtime error: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<AccessRuntime> runtime = std::move(opened).ValueOrDie();

  size_t derived = 0;
  Status mutated = RegisterAndDeriveScriptedRules(runtime.get(), &derived);
  if (!mutated.ok()) {
    std::fprintf(stderr, "rule error: %s\n", mutated.ToString().c_str());
    return 1;
  }
  std::printf(
      "loaded: %zu locations, %zu subjects, %zu authorizations "
      "(%zu rule-derived)\n",
      runtime->graph().size(), runtime->profiles().size(),
      runtime->auth_db().active_size(), derived);

  QueryInterpreter interp(&runtime->query(), &runtime->graph(),
                          &runtime->profiles(), &runtime->movements(),
                          &runtime->auth_db());
  std::unique_ptr<ServiceClient> remote;

  std::printf("query> ");
  std::fflush(stdout);
  std::string line;
  while (!ShutdownRequested() && std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "disconnect") {
      if (remote != nullptr) {
        remote.reset();
        std::printf("back to the local runtime\n");
      }
    } else if (line.rfind("connect ", 0) == 0) {
      std::string host;
      uint16_t port = 0;
      if (!ParseEndpoint(line.substr(8), &host, &port).ok()) {
        std::printf("error: usage: connect <host:port>\n");
      } else {
        Result<std::unique_ptr<ServiceClient>> connected =
            ServiceClient::Connect(host, port);
        if (connected.ok()) {
          remote = std::move(connected).ValueOrDie();
          std::printf("connected to %s:%u; statements now run remotely\n",
                      host.c_str(), port);
        } else {
          std::printf("error: %s\n",
                      connected.status().ToString().c_str());
        }
      }
    } else if (line == "stats") {
      if (remote != nullptr) {
        Result<RuntimeStats> stats = remote->Stats();
        if (stats.ok()) {
          std::printf("%s", RuntimeStatsToString(*stats).c_str());
          // A primary with attached replicas also exposes per-replica
          // shipped-vs-durable lag gauges; render them alongside. A
          // server without a registry refuses the scrape — that is not
          // a stats failure, so it stays silent.
          Result<MetricsSnapshot> snapshot = remote->Metrics();
          if (snapshot.ok()) {
            for (const auto& [name, value] : snapshot->gauges) {
              if (name.rfind("replication.replica.", 0) == 0) {
                std::printf("%s: %lld\n", name.c_str(),
                            static_cast<long long>(value));
              }
            }
          }
        } else {
          std::printf("error: %s\n", stats.status().ToString().c_str());
        }
      } else {
        std::printf("%s", RuntimeStatsToString(runtime->Stats()).c_str());
      }
    } else if (line == "metrics" || line == "metrics prom") {
      const bool prom = line == "metrics prom";
      if (remote != nullptr) {
        if (prom) {
          Result<std::string> text = remote->MetricsText();
          if (text.ok()) {
            std::printf("%s", text->c_str());
          } else {
            std::printf("error: %s\n", text.status().ToString().c_str());
          }
        } else {
          Result<MetricsSnapshot> snapshot = remote->Metrics();
          if (snapshot.ok()) {
            std::printf("%s", MetricsSummaryText(*snapshot).c_str());
          } else {
            std::printf("error: %s\n",
                        snapshot.status().ToString().c_str());
          }
        }
      } else {
        MetricsSnapshot snapshot = metrics.Snapshot();
        std::printf("%s", prom ? ToPrometheusText(snapshot).c_str()
                               : MetricsSummaryText(snapshot).c_str());
      }
    } else if (line == "checkpoint") {
      Status st = remote != nullptr ? remote->Checkpoint()
                                    : runtime->Checkpoint();
      std::printf("%s\n", st.ok() ? "checkpointed" : st.ToString().c_str());
    } else if (line == "promote") {
      if (remote == nullptr) {
        std::printf("error: promote needs a remote server (connect first)\n");
      } else {
        Result<uint64_t> epoch = remote->Promote();
        if (epoch.ok()) {
          std::printf("promoted to primary at replication epoch %llu\n",
                      static_cast<unsigned long long>(*epoch));
        } else {
          std::printf("error: %s\n", epoch.status().ToString().c_str());
        }
      }
    } else if (line.rfind("repoint ", 0) == 0) {
      std::string host;
      uint16_t port = 0;
      if (remote == nullptr) {
        std::printf("error: repoint needs a remote server (connect first)\n");
      } else if (!ParseEndpoint(line.substr(8), &host, &port).ok()) {
        std::printf("error: usage: repoint <host:port>\n");
      } else {
        Status st = remote->Repoint(host, port);
        std::printf("%s\n", st.ok() ? "repointed" : st.ToString().c_str());
      }
    } else if (!line.empty()) {
      Result<QueryResult> result =
          remote != nullptr ? remote->Query(line) : interp.Run(line);
      if (result.ok()) {
        std::printf("%s", result->ToString().c_str());
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
    }
    if (ShutdownRequested()) break;
    std::printf("query> ");
    std::fflush(stdout);
  }
  std::printf("\n");

  // Ctrl-C, SIGTERM, EOF, and quit all exit through here: a durable
  // runtime checkpoints so recovery restarts from this state.
  if (!CheckpointBeforeExit(runtime.get()).ok()) return 1;
  return 0;
}
