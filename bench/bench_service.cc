// Copyright 2026 The LTAM Authors.
// ltam-serve overhead: the same event stream (a) directly through the
// AccessRuntime facade and (b) through a loopback TCP server with N
// concurrent pipelined client connections. The gap is the price of the
// network front end — framing, socket hops, queueing — minus whatever
// the ingest coalescer claws back by merging connections' frames into
// shared runtime batches (one sharded fan-out and, durable, one
// group-commit per merged batch instead of per frame). CI captures both
// series in BENCH_pr6.json so the overhead is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/access_runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace ltam {
namespace {

struct ServiceWorld {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
  /// streams[c] is connection c's batch sequence (disjoint subjects).
  std::vector<std::vector<std::vector<AccessEvent>>> streams;
  size_t total_events = 0;
};

constexpr size_t kStreams = 4;

ServiceWorld MakeServiceWorld() {
  ServiceWorld w;
  w.graph = MakeCampusGraph(8, 8).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, 128);
  Rng rng(2026);
  AuthWorkloadOptions auth_opt;
  auth_opt.auths_per_location = 2;
  auth_opt.coverage = 0.7;
  auth_opt.horizon = 4000;
  auth_opt.min_len = 100;
  auth_opt.max_len = 800;
  auth_opt.max_entries = 0;
  GenerateAuthorizations(w.graph, w.subjects, auth_opt, &rng, &w.auth_db);
  w.streams.resize(kStreams);
  for (size_t c = 0; c < kStreams; ++c) {
    std::vector<SubjectId> mine;
    for (size_t i = c; i < w.subjects.size(); i += kStreams) {
      mine.push_back(w.subjects[i]);
    }
    BatchWorkloadOptions batch_opt;
    batch_opt.batch_size = 256;
    batch_opt.exit_fraction = 0.1;
    batch_opt.observe_fraction = 0.1;
    batch_opt.max_step = 3;
    w.streams[c] = GenerateEventBatches(w.graph, mine,
                                        /*total_events=*/4096, batch_opt,
                                        &rng);
    for (const auto& b : w.streams[c]) w.total_events += b.size();
  }
  return w;
}

SystemState InitStateOf(const ServiceWorld& w) {
  SystemState init;
  init.graph = w.graph;
  init.profiles = w.profiles;
  init.auth_db = w.auth_db;
  return init;
}

RuntimeOptions QuietOptions(uint32_t shards) {
  RuntimeOptions options;
  options.num_shards = shards;
  options.engine.alert_on_denial = false;
  return options;
}

/// Direct baseline: the same per-stream batches straight into the
/// facade, round-robin (exactly the interleaving the server's coalescer
/// reproduces).
void BM_FacadeBatch(benchmark::State& state) {
  ServiceWorld w = MakeServiceWorld();
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  state.counters["shards"] = static_cast<double>(shards);
  size_t max_batches = 0;
  for (const auto& s : w.streams) {
    max_batches = std::max(max_batches, s.size());
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto rt =
        AccessRuntime::Open(InitStateOf(w), QuietOptions(shards)).ValueOrDie();
    state.ResumeTiming();
    for (size_t k = 0; k < max_batches; ++k) {
      for (size_t c = 0; c < w.streams.size(); ++c) {
        if (k >= w.streams[c].size()) continue;
        benchmark::DoNotOptimize(rt->ApplyBatch(w.streams[c][k]));
      }
    }
    state.PauseTiming();
    rt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
}
BENCHMARK(BM_FacadeBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same streams through a loopback server: kStreams concurrent
/// connections, each pipelining its whole stream so the coalescer has
/// frames from many connections in flight at once. Arg: shards.
/// With `instrumented` a MetricsRegistry is wired through both the
/// server and runtime options, so every per-stage histogram and counter
/// records on the hot path — the telemetry-overhead series CI compares
/// against the null-registry baseline.
void RunServiceLoopback(benchmark::State& state, bool instrumented) {
  ServiceWorld w = MakeServiceWorld();
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["connections"] = static_cast<double>(kStreams);
  ServerOptions server_options;
  size_t merged_batches = 0;
  size_t merged_frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MetricsRegistry metrics;
    RuntimeOptions runtime_options = QuietOptions(shards);
    if (instrumented) {
      runtime_options.metrics = &metrics;
      server_options.metrics = &metrics;
    }
    auto rt =
        AccessRuntime::Open(InitStateOf(w), runtime_options).ValueOrDie();
    ServiceServer server(rt.get(), server_options);
    if (!server.Start().ok()) {
      state.SkipWithError("server failed to start");
      return;
    }
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (size_t c = 0; c < w.streams.size(); ++c) {
      auto client = ServiceClient::Connect("127.0.0.1", server.bound_port());
      if (!client.ok()) {
        state.SkipWithError("client failed to connect");
        return;
      }
      clients.push_back(std::move(client).ValueOrDie());
    }
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(clients.size());
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        ServiceClient* client = clients[c].get();
        size_t submitted = 0;
        for (const auto& batch : w.streams[c]) {
          if (client->SubmitBatch(batch).ok()) ++submitted;
        }
        if (!client->Flush().ok()) return;
        for (size_t i = 0; i < submitted; ++i) {
          if (!client->ReceiveBatchResult().ok()) return;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.PauseTiming();
    CoalescerStats stats = server.coalescer_stats();
    merged_batches += stats.merged_batches;
    merged_frames += stats.merged_frames;
    server.Stop();
    clients.clear();
    rt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
  if (merged_batches > 0) {
    state.counters["frames_per_merge"] =
        static_cast<double>(merged_frames) /
        static_cast<double>(merged_batches);
  }
}

void BM_ServiceLoopbackBatch(benchmark::State& state) {
  RunServiceLoopback(state, /*instrumented=*/false);
}
BENCHMARK(BM_ServiceLoopbackBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The telemetry tax: identical to BM_ServiceLoopbackBatch except every
/// stage histogram and counter records. ci.sh compares this row against
/// the 4-shard baseline row — the gap must stay within run-to-run noise.
void BM_ServiceLoopbackBatchInstrumented(benchmark::State& state) {
  RunServiceLoopback(state, /*instrumented=*/true);
}
BENCHMARK(BM_ServiceLoopbackBatchInstrumented)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Durable serving: every answer waits for its fsync ---------------------
//
// The same loopback flood against a crash-safe runtime. The coalescer
// answers a merged batch only once the runtime's log thread has fsynced
// it, and frames that arrive during the fsync join the next merge, so
// the row prices the durable ack: when the last response arrives, every
// event is durable.

std::string MakeServiceBenchDir() {
  std::string tmpl = std::filesystem::temp_directory_path().string() +
                     "/ltam_svc_bench_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  if (made == nullptr) std::abort();
  return tmpl;
}

void BM_ServiceLoopbackBatchDurable(benchmark::State& state) {
  ServiceWorld w = MakeServiceWorld();
  const uint32_t shards = 4;
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["connections"] = static_cast<double>(kStreams);
  size_t merged_batches = 0;
  size_t merged_frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = MakeServiceBenchDir();
    RuntimeOptions options = QuietOptions(shards);
    options.durable_dir = dir;
    auto rt = AccessRuntime::Open(InitStateOf(w), options).ValueOrDie();
    ServiceServer server(rt.get(), ServerOptions{});
    if (!server.Start().ok()) {
      state.SkipWithError("server failed to start");
      return;
    }
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (size_t c = 0; c < w.streams.size(); ++c) {
      auto client = ServiceClient::Connect("127.0.0.1", server.bound_port());
      if (!client.ok()) {
        state.SkipWithError("client failed to connect");
        return;
      }
      clients.push_back(std::move(client).ValueOrDie());
    }
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(clients.size());
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        ServiceClient* client = clients[c].get();
        size_t submitted = 0;
        for (const auto& batch : w.streams[c]) {
          if (client->SubmitBatch(batch).ok()) ++submitted;
        }
        if (!client->Flush().ok()) return;
        for (size_t i = 0; i < submitted; ++i) {
          if (!client->ReceiveBatchResult().ok()) return;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    state.PauseTiming();
    CoalescerStats stats = server.coalescer_stats();
    merged_batches += stats.merged_batches;
    merged_frames += stats.merged_frames;
    server.Stop();
    clients.clear();
    rt.reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.total_events));
  if (merged_batches > 0) {
    state.counters["frames_per_merge"] =
        static_cast<double>(merged_frames) /
        static_cast<double>(merged_batches);
  }
}

BENCHMARK(BM_ServiceLoopbackBatchDurable)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace ltam

BENCHMARK_MAIN();
