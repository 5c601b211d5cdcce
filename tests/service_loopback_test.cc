// Copyright 2026 The LTAM Authors.
// The ltam-serve loopback equivalence contract: the decision/alert
// stream observed through the server from N concurrent client
// connections is byte-identical to replaying the same per-subject
// streams directly on AccessRuntime — for in-memory and
// durable-sharded configurations — even though the server's ingest
// coalescer merges the connections' frames into shared batches.
// (Connections own disjoint subjects, the same independence property
// the subject-sharded pipeline exploits, so interleaving cannot change
// any decision.) Also under test: the pipelined client API actually
// feeding the coalescer, remote queries/stats against the live server,
// and the error paths (refused oversized batches, malformed queries).
//
// The whole suite is part of the TSan CI job: client threads, the I/O
// thread, read workers, and the coalescer exercise every lock in
// service/server.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/access_runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

constexpr size_t kConnections = 4;

struct World {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
};

World MakeWorld(uint64_t seed) {
  World w;
  w.graph = MakeGridGraph(5, 5).ValueOrDie();
  w.subjects = GenerateSubjects(&w.profiles, 24);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = 0.6;
  opt.horizon = 400;
  opt.min_len = 20;
  opt.max_len = 120;
  opt.max_entries = 3;
  GenerateAuthorizations(w.graph, w.subjects, opt, &rng, &w.auth_db);
  return w;
}

SystemState StateOf(const World& w) {
  SystemState state;
  state.graph = w.graph;
  state.profiles = w.profiles;
  state.auth_db = w.auth_db;
  return state;
}

/// Per-connection workloads over DISJOINT subject sets (connection i
/// owns subjects with index % kConnections == i).
std::vector<std::vector<std::vector<AccessEvent>>> MakeConnectionStreams(
    const World& w, uint64_t seed) {
  std::vector<std::vector<std::vector<AccessEvent>>> streams(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    std::vector<SubjectId> mine;
    for (size_t i = c; i < w.subjects.size(); i += kConnections) {
      mine.push_back(w.subjects[i]);
    }
    Rng rng(seed + c * 1000);
    BatchWorkloadOptions opt;
    opt.batch_size = 48;
    opt.exit_fraction = 0.15;
    opt.observe_fraction = 0.15;
    streams[c] =
        GenerateEventBatches(w.graph, mine, /*total_events=*/1200, opt, &rng);
  }
  return streams;
}

/// What one connection observed, batch by batch, rendered to bytes.
struct ConnectionOutcome {
  /// decisions[k] concatenates batch k's decision strings.
  std::vector<std::string> decisions;
  /// alerts[k] concatenates batch k's alert strings.
  std::vector<std::string> alerts;
};

std::string DecisionBytes(const std::vector<Decision>& decisions) {
  std::string out;
  for (const Decision& d : decisions) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

std::string AlertBytes(const std::vector<Alert>& alerts) {
  std::string out;
  for (const Alert& a : alerts) {
    out += a.ToString();
    out += '\n';
  }
  return out;
}

void PushOutcome(ConnectionOutcome* out, const WireBatchResult& r) {
  out->decisions.push_back(DecisionBytes(r.decisions));
  out->alerts.push_back(AlertBytes(r.alerts));
}

/// The reference: the same per-subject streams applied directly on the
/// facade, round-robin across connections (any interleaving yields the
/// same per-subject decisions — that independence is what makes the
/// server's coalescing sound).
std::vector<ConnectionOutcome> RunDirect(
    const World& w,
    const std::vector<std::vector<std::vector<AccessEvent>>>& streams,
    RuntimeOptions options) {
  std::vector<ConnectionOutcome> outcomes(streams.size());
  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(StateOf(w), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return outcomes;
  std::unique_ptr<AccessRuntime> rt = std::move(opened).ValueOrDie();
  size_t max_batches = 0;
  for (const auto& stream : streams) {
    max_batches = std::max(max_batches, stream.size());
  }
  for (size_t k = 0; k < max_batches; ++k) {
    for (size_t c = 0; c < streams.size(); ++c) {
      if (k >= streams[c].size()) continue;
      Result<BatchResult> r = rt->ApplyBatch(streams[c][k]);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) continue;
      EXPECT_OK(r->durability);
      outcomes[c].decisions.push_back(DecisionBytes(r->decisions));
      outcomes[c].alerts.push_back(AlertBytes(r->alerts));
    }
  }
  return outcomes;
}

/// The system under test: one server, `streams.size()` concurrent
/// client threads, each synchronously streaming its batches.
std::vector<ConnectionOutcome> RunThroughServer(
    const World& w,
    const std::vector<std::vector<std::vector<AccessEvent>>>& streams,
    RuntimeOptions options, CoalescerStats* coalescing = nullptr,
    ServerOptions server_options = ServerOptions{}) {
  std::vector<ConnectionOutcome> outcomes(streams.size());
  Result<std::unique_ptr<AccessRuntime>> opened =
      AccessRuntime::Open(StateOf(w), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return outcomes;
  std::unique_ptr<AccessRuntime> rt = std::move(opened).ValueOrDie();
  ServiceServer server(rt.get(), server_options);
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return outcomes;
  const uint16_t port = server.bound_port();

  std::vector<std::thread> clients;
  clients.reserve(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<ServiceClient>> connected =
          ServiceClient::Connect("127.0.0.1", port);
      ASSERT_TRUE(connected.ok()) << connected.status().ToString();
      std::unique_ptr<ServiceClient> client =
          std::move(connected).ValueOrDie();
      for (const auto& batch : streams[c]) {
        Result<WireBatchResult> r = client->ApplyBatch(batch);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_OK(r->durability);
        outcomes[c].decisions.push_back(DecisionBytes(r->decisions));
        outcomes[c].alerts.push_back(AlertBytes(r->alerts));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (coalescing != nullptr) *coalescing = server.coalescer_stats();
  server.Stop();
  return outcomes;
}

void ExpectByteIdentical(const std::vector<ConnectionOutcome>& expected,
                         const std::vector<ConnectionOutcome>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    SCOPED_TRACE("connection " + std::to_string(c));
    ASSERT_EQ(expected[c].decisions.size(), actual[c].decisions.size());
    for (size_t k = 0; k < expected[c].decisions.size(); ++k) {
      ASSERT_EQ(expected[c].decisions[k], actual[c].decisions[k])
          << "decision stream diverged at batch " << k;
      ASSERT_EQ(expected[c].alerts[k], actual[c].alerts[k])
          << "alert stream diverged at batch " << k;
    }
  }
}

class ServiceLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/ltam_service_loopback";
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_F(ServiceLoopbackTest, ConcurrentClientsMatchDirectFacadeInMemory) {
  World w = MakeWorld(211);
  auto streams = MakeConnectionStreams(w, 223);
  RuntimeOptions options;
  options.num_shards = 3;
  std::vector<ConnectionOutcome> direct = RunDirect(w, streams, options);
  CoalescerStats coalescing;
  std::vector<ConnectionOutcome> served =
      RunThroughServer(w, streams, options, &coalescing);
  ExpectByteIdentical(direct, served);
  // Every ingest frame went through a merged runtime batch.
  size_t frames = 0;
  for (const auto& stream : streams) frames += stream.size();
  EXPECT_EQ(frames, coalescing.merged_frames);
  EXPECT_GE(frames, coalescing.merged_batches);
}

TEST_F(ServiceLoopbackTest, ConcurrentClientsMatchDirectFacadeDurable) {
  World w = MakeWorld(307);
  auto streams = MakeConnectionStreams(w, 311);
  fs::create_directories(root_ + "/direct");
  fs::create_directories(root_ + "/served");
  RuntimeOptions direct_options;
  direct_options.num_shards = 3;
  direct_options.durable_dir = root_ + "/direct";
  RuntimeOptions served_options;
  served_options.num_shards = 3;
  served_options.durable_dir = root_ + "/served";
  std::vector<ConnectionOutcome> direct =
      RunDirect(w, streams, direct_options);
  std::vector<ConnectionOutcome> served =
      RunThroughServer(w, streams, served_options);
  ExpectByteIdentical(direct, served);

  // The durable directory the server wrote must recover to the same
  // movement state the direct run reached.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<AccessRuntime> direct_rt,
      AccessRuntime::Open(SystemState(), direct_options));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<AccessRuntime> served_rt,
      AccessRuntime::Open(SystemState(), served_options));
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(direct_rt->movements().CurrentLocation(s),
              served_rt->movements().CurrentLocation(s))
        << "subject " << s;
  }
}

TEST_F(ServiceLoopbackTest, PipelinedBatchesFeedTheCoalescer) {
  World w = MakeWorld(401);
  auto streams = MakeConnectionStreams(w, 409);
  RuntimeOptions options;
  options.num_shards = 2;
  std::vector<ConnectionOutcome> direct = RunDirect(w, streams, options);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  std::vector<ConnectionOutcome> served(streams.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<ServiceClient>> connected =
          ServiceClient::Connect("127.0.0.1", server.bound_port());
      ASSERT_TRUE(connected.ok()) << connected.status().ToString();
      std::unique_ptr<ServiceClient> client =
          std::move(connected).ValueOrDie();
      // All batches in flight at once; responses come back in
      // submission order (the ingest path is FIFO per connection).
      std::vector<uint32_t> ids;
      for (const auto& batch : streams[c]) {
        Result<uint32_t> id = client->SubmitBatch(batch);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids.push_back(*id);
      }
      ASSERT_OK(client->Flush());
      for (uint32_t id : ids) {
        Result<ServiceClient::PipelinedBatch> r =
            client->ReceiveBatchResult();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(id, r->request_id);
        PushOutcome(&served[c], r->result);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  CoalescerStats coalescing = server.coalescer_stats();
  server.Stop();
  ExpectByteIdentical(direct, served);
  // A pipelined flood must actually coalesce: fewer runtime batches
  // than ingest frames (each connection keeps ~25 frames in flight).
  EXPECT_LT(coalescing.merged_batches, coalescing.merged_frames);
  EXPECT_GE(coalescing.max_frames_per_batch, 2u);
}

TEST_F(ServiceLoopbackTest, RemoteQueriesAndStatsAnswerOverLiveRuntime) {
  World w = MakeWorld(503);
  RuntimeOptions options;
  options.num_shards = 2;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));

  ASSERT_OK(client->Ping());

  // Ingest through the wire, then read back through the wire: the
  // query engine answers over the live MovementView.
  LocationId door = w.graph.EntryPrimitives(w.graph.root())[0];
  std::vector<AccessEvent> batch;
  batch.push_back(AccessEvent::Observe(50, w.subjects[0], door));
  ASSERT_OK_AND_ASSIGN(WireBatchResult applied, client->ApplyBatch(batch));
  ASSERT_EQ(1u, applied.decisions.size());

  ASSERT_OK_AND_ASSIGN(
      QueryResult where,
      client->Query("WHERE WAS u0 AT 60"));
  ASSERT_EQ(1u, where.rows.size());
  EXPECT_EQ(w.graph.location(door).name, where.rows[0][2]);

  // A malformed statement maps to a structured error, not a dropped
  // connection.
  Result<QueryResult> bad = client->Query("FROBNICATE the pod bay doors");
  EXPECT_FALSE(bad.ok());

  // Stats through the wire equal the runtime's own counters.
  ASSERT_OK_AND_ASSIGN(RuntimeStats remote, client->Stats());
  RuntimeStats local = rt->Stats();  // Safe: no batch in flight.
  EXPECT_EQ(local.num_shards, remote.num_shards);
  EXPECT_EQ(local.batches_applied, remote.batches_applied);
  EXPECT_EQ(local.events_applied, remote.events_applied);
  EXPECT_EQ(local.requests_processed, remote.requests_processed);
  EXPECT_EQ(1u, remote.events_applied);

  server.Stop();
}

TEST_F(ServiceLoopbackTest, BatchResultsCarryTheDurabilityWatermark) {
  World w = MakeWorld(919);
  fs::create_directories(root_ + "/wm");
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = root_ + "/wm";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(AccessEvent::Entry(i + 1, w.subjects[0], 1));
  }
  ASSERT_OK_AND_ASSIGN(WireBatchResult r, client->ApplyBatch(batch));
  EXPECT_GE(r.watermark.applied, 4u) << "acked events count as applied";
  EXPECT_EQ(r.watermark.durable, r.watermark.applied)
      << "a batch is answered only once it is durable";
  // The remote watermark is the runtime's own (Stats carries it too).
  ASSERT_OK_AND_ASSIGN(RuntimeStats stats, client->Stats());
  EXPECT_GE(stats.applied_offset, 4u);
  EXPECT_LE(stats.durable_offset, stats.applied_offset);
  server.Stop();
}

/// Records in a fresh durable directory's epoch-0 log.
size_t LoggedRecords(const std::string& dir) {
  size_t records = 0;
  EXPECT_OK(ForEachWalLine(dir + "/events-0.wal", [&records](std::string&) {
    ++records;
    return true;
  }));
  return records;
}

TEST_F(ServiceLoopbackTest, AnswerWaitsUntilTheBatchIsDurable) {
  // The durable ack. The fault injector holds the log thread at its
  // first record write until a timer releases it 300 ms later. When the
  // answer arrives, both shard files must already hold every record of
  // the batch, and the answer's watermark must cover them.
  World w = MakeWorld(929);
  const std::string dir = root_ + "/held";
  fs::create_directories(dir);
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir;
  options.durability.fault_injector = [gate](const char* op, uint64_t) {
    if (std::string(op) == "append") {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&gate] { return gate->open; });
    }
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));
  // Every subject enters once, so both shards take records.
  std::vector<AccessEvent> batch;
  for (SubjectId s : w.subjects) {
    batch.push_back(AccessEvent::Entry(10, s, 1));
  }
  std::thread timer([gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->open = true;
    }
    gate->cv.notify_all();
  });
  Result<WireBatchResult> answered = client->ApplyBatch(batch);
  const size_t logged = LoggedRecords(dir);
  timer.join();
  ASSERT_OK(answered.status());
  EXPECT_OK(answered->durability);
  EXPECT_EQ(batch.size(), answered->decisions.size());
  EXPECT_EQ(batch.size(), logged)
      << "the answer arrived before the log wrote the batch";
  EXPECT_EQ(answered->watermark.durable, answered->watermark.applied);
  EXPECT_EQ(batch.size(), answered->watermark.durable);
  server.Stop();
}

TEST_F(ServiceLoopbackTest, FailedFsyncIsAnsweredWithDecisionsAndAnError) {
  // The fsync of the batch's own records fails. The answer must carry
  // every decision (a log failure never changes one) with a non-OK
  // durability, never an OK one, and the watermark stays below the
  // batch.
  World w = MakeWorld(937);
  const std::string dir = root_ + "/sync-fails";
  fs::create_directories(dir);
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = dir;
  options.durability.fault_injector = [](const char* op, uint64_t) {
    if (std::string(op) == "sync") {
      return Status::IOError("injected fsync failure");
    }
    return Status::OK();
  };
  std::vector<AccessEvent> batch;
  for (SubjectId s : w.subjects) {
    batch.push_back(AccessEvent::Entry(10, s, 1));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> reference,
                       AccessRuntime::Open(StateOf(w), RuntimeOptions{}));
  ASSERT_OK_AND_ASSIGN(BatchResult want, reference->ApplyBatch(batch));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));
  ASSERT_OK_AND_ASSIGN(WireBatchResult got, client->ApplyBatch(batch));
  EXPECT_FALSE(got.durability.ok()) << "a failed fsync was acknowledged";
  EXPECT_NE(std::string::npos, got.durability.ToString().find("injected"))
      << got.durability.ToString();
  ASSERT_EQ(want.decisions.size(), got.decisions.size());
  for (size_t i = 0; i < want.decisions.size(); ++i) {
    EXPECT_EQ(want.decisions[i].ToString(), got.decisions[i].ToString())
        << "decision " << i;
  }
  EXPECT_LT(got.watermark.durable, got.watermark.applied);
  server.Stop();
}

TEST_F(ServiceLoopbackTest, PerConnectionQuotaRefusesFloodingClient) {
  // One client pipelining hundreds of frames against a 1-unit
  // per-connection quota must see refusals long before the global
  // budget is touched — and a polite second connection must be
  // unaffected.
  World w = MakeWorld(1009);
  RuntimeOptions options;
  options.num_shards = 2;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServerOptions server_options;
  server_options.max_connection_queued_events = 1;
  ServiceServer server(rt.get(), server_options);
  ASSERT_OK(server.Start());

  constexpr size_t kFrames = 200;
  size_t accepted = 0;
  size_t refused = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> flooder,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));
    std::vector<uint32_t> ids;
    for (size_t k = 0; k < kFrames; ++k) {
      std::vector<AccessEvent> batch;
      batch.push_back(AccessEvent::Entry(static_cast<Chronon>(k + 1),
                                         w.subjects[0], 1));
      ASSERT_OK_AND_ASSIGN(uint32_t id, flooder->SubmitBatch(batch));
      ids.push_back(id);
    }
    ASSERT_OK(flooder->Flush());
    // Quota refusals are answered by the I/O thread the moment the
    // frame is dispatched, while accepted frames answer after the
    // coalescer applies them — so responses arrive out of submission
    // order here; match accepted ones back by request id.
    std::set<uint32_t> submitted(ids.begin(), ids.end());
    for (size_t k = 0; k < ids.size(); ++k) {
      Result<ServiceClient::PipelinedBatch> r =
          flooder->ReceiveBatchResult();
      if (r.ok()) {
        EXPECT_EQ(submitted.erase(r->request_id), 1u)
            << "duplicate or unknown response id " << r->request_id;
        ++accepted;
      } else {
        EXPECT_TRUE(r.status().IsFailedPrecondition())
            << r.status().ToString();
        EXPECT_NE(r.status().ToString().find("connection"),
                  std::string::npos)
            << "the refusal must name the connection quota, got: "
            << r.status().ToString();
        ++refused;
      }
    }
  }
  EXPECT_EQ(accepted + refused, kFrames);
  EXPECT_GE(accepted, 1u) << "the first frame always fits the quota";
  EXPECT_GE(refused, 1u) << "a 200-frame flood against a 1-unit quota "
                            "cannot be fully absorbed";
  EXPECT_EQ(server.coalescer_stats().connection_quota_refusals, refused);

  // The quota is per connection: a fresh client sails through.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> polite,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));
  std::vector<AccessEvent> one;
  one.push_back(AccessEvent::Entry(5000, w.subjects[1], 1));
  ASSERT_OK_AND_ASSIGN(WireBatchResult ok, polite->ApplyBatch(one));
  EXPECT_EQ(1u, ok.decisions.size());

  server.Stop();
}

TEST_F(ServiceLoopbackTest, EpollEquivalenceMatrix) {
  // The epoll loop's equivalence gate: in-memory-sharded and durable,
  // both byte-identical (decisions AND alerts) to the direct facade
  // replay of four concurrent connections.
  World w = MakeWorld(1103);
  auto streams = MakeConnectionStreams(w, 1109);
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in-memory");
    RuntimeOptions direct_options;
    direct_options.num_shards = 3;
    RuntimeOptions served_options = direct_options;
    if (durable) {
      fs::create_directories(root_ + "/matrix-direct");
      fs::create_directories(root_ + "/matrix-served");
      direct_options.durable_dir = root_ + "/matrix-direct";
      served_options.durable_dir = root_ + "/matrix-served";
    }
    std::vector<ConnectionOutcome> direct =
        RunDirect(w, streams, direct_options);
    CoalescerStats coalescing;
    std::vector<ConnectionOutcome> served =
        RunThroughServer(w, streams, served_options, &coalescing);
    ExpectByteIdentical(direct, served);
    // Every frame went through the one ingest queue into exactly one
    // merged ApplyBatch (no refusals, so no per-frame retries).
    size_t frames = 0;
    for (const auto& stream : streams) frames += stream.size();
    EXPECT_EQ(frames, coalescing.merged_frames);
    EXPECT_EQ(0u, coalescing.stranded_alerts_delivered)
        << "disjoint-subject streams attribute every alert exactly";
  }
}

/// A tiny deterministic world for alert-delivery tests: Alice may stay
/// in room A only until t=40 (so a Tick past that raises an overstay
/// alert for her), Bob roams the same room freely on his own generous
/// authorization. A is Fig4's only entry point, so both subjects enter
/// legally from outside; the subjects stay disjoint, which is what
/// alert attribution keys on.
SystemState AlertState(SubjectId* alice, SubjectId* bob, LocationId* a,
                       LocationId* b) {
  SystemState state;
  state.graph = MakeFig4Graph().ValueOrDie();
  *alice = state.profiles.AddSubject("Alice").ValueOrDie();
  *bob = state.profiles.AddSubject("Bob").ValueOrDie();
  *a = state.graph.Find("A").ValueOrDie();
  *b = *a;
  state.auth_db.Add(LocationTemporalAuthorization::Make(
                        TimeInterval(0, 30), TimeInterval(0, 40),
                        LocationAuthorization{*alice, *a}, 3)
                        .ValueOrDie());
  state.auth_db.Add(LocationTemporalAuthorization::Make(
                        TimeInterval(0, 1000), TimeInterval(0, 2000),
                        LocationAuthorization{*bob, *b}, kUnlimitedEntries)
                        .ValueOrDie());
  return state;
}

TEST_F(ServiceLoopbackTest, UnownedAlertsRideTheFirstResponseThatDrainsThem) {
  // An alert whose subject no frame touches rides the response of the
  // first frame whose application drains it. Here Alice's overstay
  // alert is raised by a pre-serve Tick, and the only client only ever
  // sends Bob's events — yet the alert must surface on that client's
  // first response, a batch's or a fix's alike: the server holds no
  // alert from one coalescer round to the next.
  SubjectId alice, bob;
  LocationId a, b;
  SystemState state = AlertState(&alice, &bob, &a, &b);
  // The fix phase's position resolver needs a boundary (b is A too).
  ASSERT_OK(state.graph.SetBoundary(a, Polygon::Rect(0, 0, 10, 10)));
  auto has_overstay = [&](const std::vector<Alert>& alerts) {
    for (const Alert& alert : alerts) {
      if (alert.type == AlertType::kOverstay && alert.subject == alice) {
        return true;
      }
    }
    return false;
  };

  {
    SCOPED_TRACE("batch");
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(state, RuntimeOptions{}));
    std::vector<AccessEvent> enter;
    enter.push_back(AccessEvent::Entry(10, alice, a));
    ASSERT_OK(rt->ApplyBatch(enter).status());
    ASSERT_OK(rt->Tick(50));  // Past Alice's exit window: overstay buffered.

    ServiceServer server(rt.get(), ServerOptions{});
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> client,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));

    // Batch 1 (Bob only) drains the runtime's buffer, so it carries
    // Alice's alert.
    std::vector<AccessEvent> first;
    first.push_back(AccessEvent::Entry(60, bob, b));
    ASSERT_OK_AND_ASSIGN(WireBatchResult r1, client->ApplyBatch(first));
    EXPECT_TRUE(has_overstay(r1.alerts))
        << "the first response lacks Alice's overstay alert";
    EXPECT_EQ(1u, server.coalescer_stats().stranded_alerts_delivered);
    server.Stop();
  }

  {
    SCOPED_TRACE("fix");
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(state, RuntimeOptions{}));
    std::vector<AccessEvent> enter;
    enter.push_back(AccessEvent::Entry(10, alice, a));
    enter.push_back(AccessEvent::Entry(12, bob, b));
    ASSERT_OK(rt->ApplyBatch(enter).status());
    ASSERT_OK(rt->Tick(50));

    ServiceServer server(rt.get(), ServerOptions{});
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> client,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));

    // Bob's fix resolves inside A: an observation that agrees with his
    // recorded stay. Its drain returns Alice's alert too.
    ASSERT_OK_AND_ASSIGN(WireFixResult fixed,
                         client->ApplyFix({60, bob, {3, 3}}));
    ASSERT_OK(fixed.status);
    EXPECT_TRUE(has_overstay(fixed.alerts))
        << "the fix response lacks Alice's overstay alert";
    EXPECT_EQ(1u, server.coalescer_stats().stranded_alerts_delivered);
    server.Stop();
  }
}

TEST_F(ServiceLoopbackTest, StatsWatermarkSurvivesACheckpoint) {
  // The remote Stats answer carries the runtime's one (applied,
  // durable) watermark, a record count that a checkpoint's file swap
  // does not reset.
  World w = MakeWorld(1201);
  fs::create_directories(root_ + "/shard-wm");
  RuntimeOptions options;
  options.num_shards = 3;
  options.durable_dir = root_ + "/shard-wm";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));

  std::vector<AccessEvent> batch;
  for (size_t i = 0; i < 8; ++i) {
    batch.push_back(AccessEvent::Observe(static_cast<Chronon>(i + 1),
                                         w.subjects[i % w.subjects.size()],
                                         1));
  }
  ASSERT_OK(client->ApplyBatch(batch).status());

  ASSERT_OK_AND_ASSIGN(RuntimeStats remote, client->Stats());
  EXPECT_EQ(8u, remote.applied_offset);
  EXPECT_EQ(remote.applied_offset, remote.durable_offset)
      << "the batch was answered once durable";

  ASSERT_OK(client->Checkpoint());
  ASSERT_OK_AND_ASSIGN(RuntimeStats after, client->Stats());
  EXPECT_EQ(remote.applied_offset, after.applied_offset);
  EXPECT_EQ(remote.durable_offset, after.durable_offset);
  server.Stop();
}

TEST_F(ServiceLoopbackTest, RemoteCheckpointAdvancesTheEpoch) {
  World w = MakeWorld(701);
  fs::create_directories(root_ + "/ckpt");
  RuntimeOptions options;
  options.num_shards = 2;
  options.durable_dir = root_ + "/ckpt";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));

  ASSERT_OK_AND_ASSIGN(RuntimeStats before, client->Stats());
  ASSERT_OK(client->Checkpoint());
  ASSERT_OK_AND_ASSIGN(RuntimeStats after, client->Stats());
  EXPECT_TRUE(after.durable);
  EXPECT_GT(after.epoch, before.epoch);

  server.Stop();
}

TEST_F(ServiceLoopbackTest, MetricsReconcileWithFramesSentOverTheWire) {
  World w = MakeWorld(811);
  auto streams = MakeConnectionStreams(w, 821);
  // In memory the ack waits for nothing; durable, every merged batch
  // waits for its fsync before it is answered. The same exact counts
  // must hold either way.
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in-memory");
    RuntimeOptions options;
    options.num_shards = 2;
    if (durable) {
      options.durable_dir = root_ + "/metrics-durable";
      fs::create_directories(*options.durable_dir);
    }
    MetricsRegistry metrics;
    options.metrics = &metrics;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                         AccessRuntime::Open(StateOf(w), options));
    ServerOptions server_options;
    server_options.metrics = &metrics;
    ServiceServer server(rt.get(), server_options);
    ASSERT_OK(server.Start());

    size_t frames_sent = 0;
    size_t events_sent = 0;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < streams.size(); ++c) {
      for (const auto& batch : streams[c]) {
        ++frames_sent;
        events_sent += batch.size();
      }
      clients.emplace_back([&, c] {
        Result<std::unique_ptr<ServiceClient>> connected =
            ServiceClient::Connect("127.0.0.1", server.bound_port());
        ASSERT_TRUE(connected.ok()) << connected.status().ToString();
        std::unique_ptr<ServiceClient> client =
            std::move(connected).ValueOrDie();
        for (const auto& batch : streams[c]) {
          Result<uint32_t> id = client->SubmitBatch(batch);
          ASSERT_TRUE(id.ok()) << id.status().ToString();
        }
        ASSERT_OK(client->Flush());
        for (size_t i = 0; i < streams[c].size(); ++i) {
          ASSERT_OK(client->ReceiveBatchResult().status());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    CoalescerStats coalescing = server.coalescer_stats();

    // Scrape over the wire while the server is still up.
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> scraper,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));
    // The coalescer records ingest.write and ingest.e2e just after it
    // answers a batch, so a scrape that follows the last answer could see
    // one frame fewer. A Checkpoint is a barrier the coalescer handles only
    // after it returned from the round that answered the last batch, and
    // barrier frames are never counted in ingest.*.
    ASSERT_OK(scraper->Checkpoint());
    // One read through the query path (result content is irrelevant —
    // the read worker times the run either way).
    (void)scraper->Query("WHERE WAS u0 AT 60");
    ASSERT_OK_AND_ASSIGN(MetricsSnapshot snapshot, scraper->Metrics());
    const std::string text = ToPrometheusText(snapshot);
    server.Stop();

    auto histogram = [&](const std::string& name) -> const LatencyHistogram& {
      for (const auto& [n, h] : snapshot.histograms) {
        if (n == name) return h;
      }
      ADD_FAILURE() << "missing histogram " << name;
      static LatencyHistogram empty;
      return empty;
    };
    auto counter = [&](const std::string& name) -> uint64_t {
      for (const auto& [n, v] : snapshot.counters) {
        if (n == name) return v;
      }
      ADD_FAILURE() << "missing counter " << name;
      return 0;
    };

    // The reconciliation contract: every client frame was counted once at
    // dispatch, picked up once, decoded once, applied once — the same
    // basis CoalescerStats counts on — and nothing was double- or
    // under-counted anywhere in the pipeline.
    EXPECT_EQ(frames_sent, counter("ingest.frames"));
    EXPECT_EQ(events_sent, counter("ingest.events"));
    EXPECT_EQ(frames_sent, coalescing.merged_frames);
    EXPECT_EQ(frames_sent, histogram("ingest.apply").count());
    EXPECT_EQ(frames_sent, histogram("ingest.queue_wait").count());
    EXPECT_EQ(frames_sent, histogram("ingest.decode").count());
    EXPECT_EQ(frames_sent, histogram("ingest.write").count());
    EXPECT_EQ(frames_sent, histogram("ingest.e2e").count());
    // One fsync-wait span per merged batch.
    EXPECT_EQ(coalescing.merged_batches,
              histogram("ingest.fsync_wait").count());
    // The read worker timed the query.
    EXPECT_EQ(1u, histogram("query.run").count());
    // Runtime-side stages recorded into the SAME registry through
    // RuntimeOptions::metrics: one runtime.apply_batch per merged batch.
    EXPECT_EQ(coalescing.merged_batches,
              histogram("runtime.apply_batch").count());

    // Stage spans nest inside the end-to-end span: each stage's total
    // time is bounded by e2e's total time (sum-consistency; queue_wait +
    // decode + apply + write <= e2e would need per-request sums, but
    // per-stage totals must each bound below the e2e total).
    const LatencyHistogram& e2e = histogram("ingest.e2e");
    EXPECT_LE(histogram("ingest.decode").sum(), e2e.sum());
    EXPECT_LE(histogram("ingest.write").sum(), e2e.sum());
    EXPECT_LE(histogram("ingest.queue_wait").sum(), e2e.sum());
    // The durable ack's wait is part of every frame it answers.
    EXPECT_LE(histogram("ingest.fsync_wait").sum(), e2e.sum());

    // The text exposition parses: non-comment lines are "name value",
    // and the counters agree with the structured scrape.
    EXPECT_NE(std::string::npos,
              text.find("# TYPE ltam_ingest_frames counter"));
    EXPECT_NE(std::string::npos,
              text.find("ltam_ingest_frames " + std::to_string(frames_sent)));
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      ASSERT_NE(std::string::npos, line.rfind(' ')) << line;
      EXPECT_EQ(0u, line.find("ltam_")) << line;
    }
  }
}

TEST_F(ServiceLoopbackTest, MetricsRefusedWithoutARegistry) {
  World w = MakeWorld(823);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), RuntimeOptions{}));
  ServiceServer server(rt.get(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ServiceClient> client,
      ServiceClient::Connect("127.0.0.1", server.bound_port()));
  Result<MetricsSnapshot> refused = client->Metrics();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  // The connection survives the refusal.
  ASSERT_OK(client->Ping());
  server.Stop();
}

TEST_F(ServiceLoopbackTest, SlowRequestTracingCountsEmittedTraces) {
  World w = MakeWorld(827);
  RuntimeOptions options;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), options));
  ServerOptions server_options;
  server_options.metrics = &metrics;
  server_options.trace_threshold_us = 0;  // Disabled: no trace counters.
  {
    ServiceServer server(rt.get(), server_options);
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> client,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));
    std::vector<AccessEvent> batch;
    batch.push_back(AccessEvent::Observe(10, w.subjects[0], 1));
    ASSERT_OK(client->ApplyBatch(batch).status());
    server.Stop();
  }
  EXPECT_EQ(0u, metrics.GetCounter("trace.emitted")->value());

  // Threshold 0us is "disabled"; 1us traces effectively everything
  // (every loopback request takes longer than a microsecond).
  server_options.trace_threshold_us = 1;
  {
    ServiceServer server(rt.get(), server_options);
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ServiceClient> client,
        ServiceClient::Connect("127.0.0.1", server.bound_port()));
    std::vector<AccessEvent> batch;
    batch.push_back(AccessEvent::Observe(20, w.subjects[0], 1));
    ASSERT_OK(client->ApplyBatch(batch).status());
    server.Stop();
  }
  // The single request tripped the threshold; the rate limiter admits
  // the first trace of the window.
  EXPECT_EQ(1u, metrics.GetCounter("trace.emitted")->value());
}

TEST(ServiceEndpointTest, ParsePortAndEndpointAreStrict) {
  struct PortCase {
    const char* text;
    bool ok;
    uint16_t port;
  };
  for (const PortCase& c : {PortCase{"0", true, 0},
                            PortCase{"7447", true, 7447},
                            PortCase{"65535", true, 65535},
                            PortCase{"", false, 0},
                            PortCase{"+1", false, 0},
                            PortCase{"65536", false, 0}}) {
    SCOPED_TRACE(std::string("port '") + c.text + "'");
    Result<uint16_t> port = ParsePort(c.text);
    ASSERT_EQ(c.ok, port.ok()) << port.status().ToString();
    if (c.ok) {
      EXPECT_EQ(c.port, *port);
    }
  }

  std::string host;
  uint16_t port = 0;
  ASSERT_OK(ParseEndpoint("127.0.0.1:7447", &host, &port));
  EXPECT_EQ("127.0.0.1", host);
  EXPECT_EQ(7447, port);
  for (const char* bad :
       {"h:0", "h:65536", "h:70000", "h:12x", "h:-1", "h:", ":1", "h"}) {
    SCOPED_TRACE(std::string("endpoint '") + bad + "'");
    Status parsed = ParseEndpoint(bad, &host, &port);
    EXPECT_TRUE(parsed.IsInvalidArgument()) << parsed.ToString();
  }
  // A refusal leaves the outputs untouched.
  EXPECT_EQ("127.0.0.1", host);
  EXPECT_EQ(7447, port);
}

}  // namespace
}  // namespace ltam
