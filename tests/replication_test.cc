// Copyright 2026 The LTAM Authors.
// The replicated-serving contract, end to end over real sockets:
//
//  * A read replica that subscribes to a primary catches up to the
//    primary's committed WAL stream, answers Query/Stats byte-identical
//    to it, and refuses every write with a structured redirect.
//  * Crash-promote-reconnect: the primary dies abruptly mid-sequence,
//    one replica is promoted through the wire (epoch bump), the other
//    is repointed at the survivor — and the decision stream observed
//    across the failover is byte-identical to a direct single-runtime
//    replay of the same batches, with both survivors converging to the
//    same movement state.
//  * Fencing: once a promotion happened, the stale-epoch ex-primary's
//    stream is provably rejected — a replica that has seen epoch N
//    parks rather than subscribe to an epoch N-1 upstream, and none of
//    the ex-primary's post-partition writes ever reach it.
//
// A replica node is a ServiceServer started with
// ServerOptions::replica_of, exactly what ltam_serve --replica-of sets:
// the server demotes its runtime, owns the upstream link, and answers
// promote/repoint itself. The whole suite runs under the TSan CI job —
// shipper threads, link threads, I/O loops, and the failover paths
// exercise every replication lock.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "replication/epoch.h"
#include "runtime/access_runtime.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kShards = 3;

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

std::vector<std::vector<AccessEvent>> MakeBatches(const World& w,
                                                  size_t total_events,
                                                  uint64_t seed) {
  Rng rng(seed);
  BatchWorkloadOptions opt;
  opt.batch_size = 40;
  opt.exit_fraction = 0.15;
  opt.observe_fraction = 0.15;
  return GenerateEventBatches(w.graph, w.subjects, total_events, opt, &rng);
}

std::string DecisionBytes(const std::vector<Decision>& decisions) {
  std::string out;
  for (const Decision& d : decisions) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

/// Renders a query answer OR its error — a replica must agree with the
/// primary on both.
std::string Render(const Result<QueryResult>& r) {
  return r.ok() ? r->ToString() : r.status().ToString();
}

/// One server node: the runtime and the server over it. A replica's
/// server follows its upstream on its own (ServerOptions::replica_of).
struct Node {
  std::string dir;
  std::unique_ptr<AccessRuntime> runtime;
  std::unique_ptr<ServiceServer> server;
  uint16_t port = 0;

  /// upstream_port < 0 starts a primary; otherwise a replica following
  /// 127.0.0.1:upstream_port, whose write refusals name that primary.
  void Start(const World& w, const std::string& d, int upstream_port,
             uint32_t shards = kShards) {
    dir = d;
    fs::create_directories(dir);
    RuntimeOptions options;
    options.num_shards = shards;
    options.durable_dir = dir;
    Result<std::unique_ptr<AccessRuntime>> opened =
        AccessRuntime::Open(StateOf(w), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    runtime = std::move(opened).ValueOrDie();
    ServerOptions server_options;
    if (upstream_port >= 0) {
      server_options.replica_of = "127.0.0.1:" + std::to_string(upstream_port);
    }
    server = std::make_unique<ServiceServer>(runtime.get(), server_options);
    ASSERT_OK(server->Start());
    port = server->bound_port();
  }

  void Stop() {
    if (server != nullptr) server->Stop();
  }

  Status LinkError() const { return server->upstream_error(); }
};

/// Sends `events` as one raw ApplyBatch frame and returns the error the
/// server answers with. Raw, because ServiceClient::ApplyBatch would
/// follow a replica's [primary=...] token and land the write there.
Status RawApplyRefusal(ServiceClient* client,
                       const std::vector<AccessEvent>& events) {
  LTAM_RETURN_IF_ERROR(client->SendRawFrame(MessageType::kApplyBatch, 1,
                                            EncodeApplyBatchRequest(events)));
  LTAM_ASSIGN_OR_RETURN(Frame reply, client->ReceiveRaw());
  if (reply.header.type != MessageType::kError) {
    return Status::Internal(std::string("expected a refusal, got ") +
                            MessageTypeToString(reply.header.type));
  }
  Status refused;
  LTAM_RETURN_IF_ERROR(DecodeErrorResult(reply.payload, &refused));
  return refused;
}

/// Polls `client`'s remote Stats until `pred` holds; fails the test
/// (and returns the last observation) after ~10s.
RuntimeStats AwaitStats(ServiceClient* client,
                        const std::function<bool(const RuntimeStats&)>& pred,
                        const std::string& what) {
  RuntimeStats last;
  for (int i = 0; i < 500; ++i) {
    Result<RuntimeStats> stats = client->Stats();
    if (stats.ok()) {
      last = *stats;
      if (pred(last)) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "timed out waiting for " << what
                << " (applied_offset=" << last.applied_offset
                << ", replication_epoch=" << last.replication_epoch << ")";
  return last;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/ltam_replication_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Feeds 320 events to a primary of `primary_shards` shards and checks
  /// that a one-shard replica catches up and answers like the primary.
  void PrimaryFeedsOneShardReplica(uint32_t primary_shards);

  std::string root_;
};

TEST(ReplicationEpochTest, PersistedEpochRoundTripsAndGatesFence) {
  const std::string dir = ::testing::TempDir() + "/ltam_repl_epoch";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Never persisted reads as 0: pre-replication directories upgrade in
  // place.
  ASSERT_OK_AND_ASSIGN(uint64_t fresh, LoadReplicationEpoch(dir));
  EXPECT_EQ(0u, fresh);
  ASSERT_OK(StoreReplicationEpoch(dir, 7));
  ASSERT_OK_AND_ASSIGN(uint64_t loaded, LoadReplicationEpoch(dir));
  EXPECT_EQ(7u, loaded);

  // A present-but-corrupt file is an error, not a 0 — silently
  // restarting a fenced primary at epoch 0 would defeat the gate.
  {
    std::ofstream out(dir + "/" + ReplicationEpochFileName(),
                      std::ios::binary | std::ios::trunc);
    out << "not-a-number\n";
  }
  EXPECT_FALSE(LoadReplicationEpoch(dir).ok());

  // The primary-side gate: a hello ABOVE the local epoch means this
  // primary has been superseded.
  EXPECT_OK(CheckSubscriptionEpoch(5, 5));
  EXPECT_OK(CheckSubscriptionEpoch(5, 4));
  Status superseded = CheckSubscriptionEpoch(5, 6);
  EXPECT_TRUE(superseded.IsFailedPrecondition()) << superseded.ToString();
  EXPECT_NE(superseded.ToString().find("fenced"), std::string::npos);

  // The replica-side gate: a frame BELOW the local epoch is from a
  // fenced ex-primary; equal and higher flow.
  EXPECT_OK(CheckStreamEpoch(5, 5));
  EXPECT_OK(CheckStreamEpoch(5, 9));
  Status stale = CheckStreamEpoch(5, 4);
  EXPECT_TRUE(stale.IsFailedPrecondition()) << stale.ToString();
  EXPECT_NE(stale.ToString().find("fenced"), std::string::npos);

  fs::remove_all(dir);
}

TEST_F(ReplicationTest, ReplicaCatchesUpServesReadsAndRefusesWrites) {
  World w = MakeWorld(3101);
  auto batches = MakeBatches(w, /*total_events=*/480, 3109);

  Node primary;
  Node replica;
  primary.Start(w, root_ + "/primary", -1);
  replica.Start(w, root_ + "/replica", primary.port);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> primary_client,
                       ServiceClient::Connect("127.0.0.1", primary.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> replica_client,
                       ServiceClient::Connect("127.0.0.1", replica.port));

  // A replica refuses writes with a structured redirect naming its
  // primary — a full batch and a one-event frame both, before any
  // traffic has flowed.
  const std::string token =
      "[primary=127.0.0.1:" + std::to_string(primary.port) + "]";
  for (const std::vector<AccessEvent>& write :
       {batches[0], std::vector<AccessEvent>{batches[0][0]}}) {
    Status refused = RawApplyRefusal(replica_client.get(), write);
    EXPECT_TRUE(refused.IsFailedPrecondition()) << refused.ToString();
    EXPECT_NE(refused.ToString().find("replica"), std::string::npos)
        << refused.ToString();
    EXPECT_NE(refused.ToString().find(token), std::string::npos)
        << "the refusal must redirect to the primary, got: "
        << refused.ToString();
  }

  // Ingest through the primary; the shipper streams committed records.
  size_t fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK(primary_client->ApplyBatch(batch).status());
    fed += batch.size();
  }
  RuntimeStats caught = AwaitStats(
      replica_client.get(),
      [&](const RuntimeStats& s) { return s.applied_offset == fed; },
      "replica catch-up to " + std::to_string(fed) + " records");
  EXPECT_TRUE(caught.replica);
  EXPECT_EQ(0u, caught.replication_epoch);

  // The position agrees with the primary's own watermark.
  ASSERT_OK_AND_ASSIGN(RuntimeStats primary_stats, primary_client->Stats());
  EXPECT_FALSE(primary_stats.replica);
  EXPECT_EQ(primary_stats.applied_offset, caught.applied_offset);
  EXPECT_LE(caught.durable_offset, caught.applied_offset);

  // Live remote reads answer byte-identical over both runtimes.
  for (size_t i = 0; i < w.subjects.size(); ++i) {
    for (Chronon t : {60, 150, 240, 390}) {
      const std::string statement =
          "WHERE WAS u" + std::to_string(i) + " AT " + std::to_string(t);
      EXPECT_EQ(Render(primary_client->Query(statement)),
                Render(replica_client->Query(statement)))
          << statement;
    }
  }

  primary_client.reset();
  replica_client.reset();
  replica.Stop();
  primary.Stop();
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(primary.runtime->movements().CurrentLocation(s),
              replica.runtime->movements().CurrentLocation(s))
        << "subject " << s;
  }
}

void ReplicationTest::PrimaryFeedsOneShardReplica(uint32_t primary_shards) {
  World w = MakeWorld(7101);
  auto batches = MakeBatches(w, /*total_events=*/320, 7109);

  Node primary;
  Node replica;
  primary.Start(w, root_ + "/primary", -1, primary_shards);
  replica.Start(w, root_ + "/replica", primary.port, /*shards=*/1);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> primary_client,
                       ServiceClient::Connect("127.0.0.1", primary.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> replica_client,
                       ServiceClient::Connect("127.0.0.1", replica.port));

  size_t fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK(primary_client->ApplyBatch(batch).status());
    fed += batch.size();
  }
  RuntimeStats caught = AwaitStats(
      replica_client.get(),
      [&](const RuntimeStats& s) { return s.applied_offset == fed; },
      "one-shard replica catch-up to " + std::to_string(fed) + " records");
  EXPECT_TRUE(caught.replica);
  EXPECT_EQ(1u, caught.num_shards);
  EXPECT_EQ(fed, caught.applied_offset);
  ASSERT_OK_AND_ASSIGN(RuntimeStats primary_stats, primary_client->Stats());
  EXPECT_EQ(primary_shards, primary_stats.num_shards);

  for (size_t i = 0; i < w.subjects.size(); ++i) {
    const std::string statement =
        "WHERE WAS u" + std::to_string(i) + " AT 200";
    EXPECT_EQ(Render(primary_client->Query(statement)),
              Render(replica_client->Query(statement)))
        << statement;
  }

  primary_client.reset();
  replica_client.reset();
  replica.Stop();
  primary.Stop();
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(primary.runtime->movements().CurrentLocation(s),
              replica.runtime->movements().CurrentLocation(s))
        << "subject " << s;
  }
}

// One shard is a full durable citizen: its single log ships and applies
// like the log of a multi-shard runtime.
TEST_F(ReplicationTest, OneShardPrimaryFeedsOneShardReplica) {
  PrimaryFeedsOneShardReplica(1);
}

// A log record carries no shard and every shard count makes the same
// decisions, so a replica need not run its primary's shard count.
TEST_F(ReplicationTest, FourShardPrimaryFeedsOneShardReplica) {
  PrimaryFeedsOneShardReplica(4);
}

/// Grabs an ephemeral port the kernel just released — connecting to it
/// refuses fast, which is what the failed-redirect leg needs.
uint16_t ClosedPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(0, ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  socklen_t len = sizeof(addr);
  EXPECT_EQ(0, ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len));
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST_F(ReplicationTest, ClientFollowsStructuredPrimaryRedirect) {
  World w = MakeWorld(6401);
  auto batches = MakeBatches(w, /*total_events=*/160, 6407);
  ASSERT_GE(batches.size(), 2u);

  Node primary;
  Node replica;
  primary.Start(w, root_ + "/primary", -1);
  replica.Start(w, root_ + "/replica", primary.port);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> client,
                       ServiceClient::Connect("127.0.0.1", replica.port));

  // The replica's refusal names the primary; the client re-dials it and
  // the write lands — one redirect, no error surfaced to the caller.
  ASSERT_OK_AND_ASSIGN(WireBatchResult first, client->ApplyBatch(batches[0]));
  EXPECT_EQ(batches[0].size(), first.decisions.size());
  EXPECT_EQ(1u, client->client_stats().redirects_followed);
  EXPECT_EQ(0u, client->client_stats().redirect_dial_failures);

  // The client now talks to the primary directly: further writes do not
  // redirect again, and Stats reports the primary role.
  ASSERT_OK(client->ApplyBatch({batches[1][0]}).status());
  EXPECT_EQ(1u, client->client_stats().redirects_followed);
  ASSERT_OK_AND_ASSIGN(RuntimeStats role, client->Stats());
  EXPECT_FALSE(role.replica);

  // The redirected writes replicate back to the node the client first
  // dialed — the redirect did not fork the write path.
  const size_t fed = batches[0].size() + 1;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> replica_client,
                       ServiceClient::Connect("127.0.0.1", replica.port));
  AwaitStats(
      replica_client.get(),
      [&](const RuntimeStats& s) { return s.applied_offset == fed; },
      "replica catch-up behind the redirected writes");

  // A refusal naming an unreachable primary surfaces unchanged: repoint
  // the replica (the advertised hint chases the link) at a port nobody
  // listens on, then write through it again.
  ASSERT_OK(replica_client->Repoint("127.0.0.1", ClosedPort()));
  Result<WireBatchResult> refused = replica_client->ApplyBatch(batches[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("[primary="), std::string::npos)
      << "the structured token must survive a failed follow: "
      << refused.status().ToString();
  EXPECT_EQ(0u, replica_client->client_stats().redirects_followed);
  EXPECT_EQ(1u, replica_client->client_stats().redirect_dial_failures);

  client.reset();
  replica_client.reset();
  replica.Stop();
  primary.Stop();
}

TEST_F(ReplicationTest, CrashPromoteRepointPreservesByteIdenticalDecisions) {
  World w = MakeWorld(4201);
  auto batches = MakeBatches(w, /*total_events=*/600, 4211);
  ASSERT_GE(batches.size(), 4u);
  const size_t cut = batches.size() / 2;

  Node primary;
  Node replica1;
  Node replica2;
  primary.Start(w, root_ + "/primary", -1);
  replica1.Start(w, root_ + "/replica1", primary.port);
  replica2.Start(w, root_ + "/replica2", primary.port);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> primary_client,
                       ServiceClient::Connect("127.0.0.1", primary.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> r1_client,
                       ServiceClient::Connect("127.0.0.1", replica1.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> r2_client,
                       ServiceClient::Connect("127.0.0.1", replica2.port));

  // First half of the sequence through the doomed primary; collect the
  // decision stream the client observed.
  std::vector<std::string> decisions;
  size_t fed = 0;
  for (size_t k = 0; k < cut; ++k) {
    ASSERT_OK_AND_ASSIGN(WireBatchResult r,
                         primary_client->ApplyBatch(batches[k]));
    decisions.push_back(DecisionBytes(r.decisions));
    fed += batches[k].size();
  }
  auto caught_up = [&](const RuntimeStats& s) {
    return s.applied_offset == fed;
  };
  AwaitStats(r1_client.get(), caught_up, "replica1 pre-crash catch-up");
  AwaitStats(r2_client.get(), caught_up, "replica2 pre-crash catch-up");

  // The primary dies abruptly: no checkpoint, its clients unceremoniously
  // cut off.
  primary_client.reset();
  primary.Stop();
  primary.runtime.reset();

  // Failover, all through the wire: promote one survivor, repoint the
  // other at it.
  ASSERT_OK_AND_ASSIGN(uint64_t epoch, r1_client->Promote());
  EXPECT_EQ(1u, epoch);
  ASSERT_OK(r2_client->Repoint("127.0.0.1", replica1.port));

  // The promoted node accepts the remainder of the sequence.
  for (size_t k = cut; k < batches.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(WireBatchResult r, r1_client->ApplyBatch(batches[k]));
    decisions.push_back(DecisionBytes(r.decisions));
    fed += batches[k].size();
  }
  RuntimeStats converged = AwaitStats(
      r2_client.get(),
      [&](const RuntimeStats& s) {
        return s.applied_offset == fed && s.replication_epoch == 1;
      },
      "replica2 post-failover convergence");
  EXPECT_TRUE(converged.replica);
  ASSERT_OK_AND_ASSIGN(RuntimeStats promoted, r1_client->Stats());
  EXPECT_FALSE(promoted.replica) << "promotion re-enables writes";
  EXPECT_EQ(1u, promoted.replication_epoch);

  // The acceptance gate: the decision stream observed ACROSS the
  // failover is byte-identical to a direct single-runtime replay.
  RuntimeOptions reference_options;
  reference_options.num_shards = kShards;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> reference,
                       AccessRuntime::Open(StateOf(w), reference_options));
  for (size_t k = 0; k < batches.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(BatchResult r, reference->ApplyBatch(batches[k]));
    EXPECT_EQ(DecisionBytes(r.decisions), decisions[k])
        << "decision stream diverged at batch " << k
        << (k < cut ? " (old primary)" : " (promoted survivor)");
  }

  // Both survivors answer live reads identically.
  for (size_t i = 0; i < w.subjects.size(); ++i) {
    const std::string statement = "WHERE WAS u" + std::to_string(i) +
                                  " AT 200";
    EXPECT_EQ(Render(r1_client->Query(statement)),
              Render(r2_client->Query(statement)))
        << statement;
  }

  r1_client.reset();
  r2_client.reset();
  replica1.Stop();
  replica2.Stop();
  for (SubjectId s : w.subjects) {
    EXPECT_EQ(reference->movements().CurrentLocation(s),
              replica1.runtime->movements().CurrentLocation(s))
        << "promoted survivor diverged on subject " << s;
    EXPECT_EQ(reference->movements().CurrentLocation(s),
              replica2.runtime->movements().CurrentLocation(s))
        << "repointed survivor diverged on subject " << s;
  }
}

TEST_F(ReplicationTest, StaleEpochPrimaryIsFencedAndSurvivorRecovers) {
  World w = MakeWorld(5301);
  auto batches = MakeBatches(w, /*total_events=*/320, 5303);
  ASSERT_GE(batches.size(), 7u);

  // A split-brain rehearsal: A keeps running at epoch 0 while B is
  // promoted to epoch 1 behind its back.
  Node a;
  Node b;
  Node c;
  a.Start(w, root_ + "/a", -1);
  b.Start(w, root_ + "/b", a.port);
  c.Start(w, root_ + "/c", a.port);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> a_client,
                       ServiceClient::Connect("127.0.0.1", a.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> b_client,
                       ServiceClient::Connect("127.0.0.1", b.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> c_client,
                       ServiceClient::Connect("127.0.0.1", c.port));

  size_t fed = 0;
  for (size_t k = 0; k < 4; ++k) {
    ASSERT_OK(a_client->ApplyBatch(batches[k]).status());
    fed += batches[k].size();
  }
  auto caught_up = [&](const RuntimeStats& s) {
    return s.applied_offset == fed;
  };
  AwaitStats(b_client.get(), caught_up, "b catch-up");
  AwaitStats(c_client.get(), caught_up, "c catch-up");

  ASSERT_OK_AND_ASSIGN(uint64_t epoch, b_client->Promote());
  EXPECT_EQ(1u, epoch);
  ASSERT_OK(c_client->Repoint("127.0.0.1", b.port));
  ASSERT_OK(b_client->ApplyBatch(batches[4]).status());
  fed += batches[4].size();
  AwaitStats(
      c_client.get(),
      [&](const RuntimeStats& s) {
        return s.applied_offset == fed && s.replication_epoch == 1;
      },
      "c following the promoted b");

  // Point C at the fenced ex-primary. Its hello (epoch 1) tells A
  // (epoch 0) it has been superseded; A must refuse the subscription
  // and C must park rather than regress.
  ASSERT_OK(c_client->Repoint("127.0.0.1", a.port));
  // A — unaware of the promotion — keeps accepting writes...
  ASSERT_OK(a_client->ApplyBatch(batches[5]).status());
  bool fenced = false;
  for (int i = 0; i < 500 && !fenced; ++i) {
    Status err = c.LinkError();
    fenced = !err.ok() && err.IsFailedPrecondition() &&
             err.ToString().find("fenced") != std::string::npos;
    if (!fenced) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(fenced) << "expected a fencing refusal, last link error: "
                      << c.LinkError().ToString();
  // ...and none of them may ever reach C: after at least three more
  // redials (200 ms apart) it still holds exactly the promoted lineage.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  ASSERT_OK_AND_ASSIGN(RuntimeStats c_stats, c_client->Stats());
  EXPECT_EQ(fed, c_stats.applied_offset)
      << "a fenced upstream's writes leaked into the replica";
  EXPECT_EQ(1u, c_stats.replication_epoch);

  // Repointed back to the true primary, the survivor resumes cleanly.
  ASSERT_OK(c_client->Repoint("127.0.0.1", b.port));
  ASSERT_OK(b_client->ApplyBatch(batches[6]).status());
  fed += batches[6].size();
  AwaitStats(
      c_client.get(),
      [&](const RuntimeStats& s) { return s.applied_offset == fed; },
      "c resuming from the true primary");

  a_client.reset();
  b_client.reset();
  c_client.reset();
  c.Stop();
  b.Stop();
  a.Stop();
}

TEST_F(ReplicationTest, ReplicaStartValidatesBeforeBinding) {
  World w = MakeWorld(8101);

  // An in-memory runtime cannot follow a primary: Start() fails before
  // anything is bound.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> in_memory,
                       AccessRuntime::Open(StateOf(w), RuntimeOptions{}));
  ServerOptions follow;
  follow.replica_of = "127.0.0.1:" + std::to_string(ClosedPort());
  ServiceServer refused(in_memory.get(), follow);
  Status started = refused.Start();
  EXPECT_TRUE(started.IsFailedPrecondition()) << started.ToString();
  EXPECT_NE(started.ToString().find("durable"), std::string::npos)
      << started.ToString();
  EXPECT_EQ(0u, refused.bound_port()) << "a refused replica must not listen";
  EXPECT_FALSE(in_memory->is_replica());
  refused.Stop();  // Nothing started, so nothing to stop.

  // A malformed endpoint is refused before the runtime is demoted.
  fs::create_directories(root_ + "/durable");
  RuntimeOptions durable;
  durable.durable_dir = root_ + "/durable";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<AccessRuntime> rt,
                       AccessRuntime::Open(StateOf(w), durable));
  for (const char* endpoint : {"h:0", "nohost"}) {
    ServerOptions bad;
    bad.replica_of = endpoint;
    ServiceServer server(rt.get(), bad);
    Status st = server.Start();
    EXPECT_TRUE(st.IsInvalidArgument()) << endpoint << ": " << st.ToString();
    EXPECT_EQ(0u, server.bound_port()) << endpoint;
    EXPECT_FALSE(rt->is_replica()) << endpoint;
  }
}

TEST_F(ReplicationTest, StopRetiresTheUpstreamLink) {
  World w = MakeWorld(8201);
  auto batches = MakeBatches(w, /*total_events=*/160, 8209);
  ASSERT_GE(batches.size(), 2u);

  Node primary;
  Node replica;
  primary.Start(w, root_ + "/primary", -1);
  replica.Start(w, root_ + "/replica", primary.port);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> primary_client,
                       ServiceClient::Connect("127.0.0.1", primary.port));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> replica_client,
                       ServiceClient::Connect("127.0.0.1", replica.port));
  ASSERT_OK(primary_client->ApplyBatch(batches[0]).status());
  const size_t fed = batches[0].size();
  AwaitStats(
      replica_client.get(),
      [&](const RuntimeStats& s) { return s.applied_offset == fed; },
      "replica catch-up before Stop");

  // Once Stop() returns no replicated record lands — the exit
  // checkpoint a host takes next relies on that — however much the
  // primary goes on shipping.
  replica_client.reset();
  replica.Stop();
  size_t shipped = fed;
  for (size_t k = 1; k < batches.size(); ++k) {
    ASSERT_OK(primary_client->ApplyBatch(batches[k]).status());
    shipped += batches[k].size();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(fed, replica.runtime->Stats().applied_offset)
      << "records landed after Stop() (the primary holds " << shipped << ")";
  EXPECT_OK(replica.LinkError());

  primary_client.reset();
  primary.Stop();
}

TEST_F(ReplicationTest, PrimaryRefusesPromoteAndRepoint) {
  World w = MakeWorld(8301);
  Node primary;
  primary.Start(w, root_ + "/primary", -1);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ServiceClient> client,
                       ServiceClient::Connect("127.0.0.1", primary.port));

  Result<uint64_t> promoted = client->Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_TRUE(promoted.status().IsFailedPrecondition())
      << promoted.status().ToString();
  Status repointed = client->Repoint("127.0.0.1", ClosedPort());
  EXPECT_TRUE(repointed.IsFailedPrecondition()) << repointed.ToString();

  // Neither refusal touched the role or the epoch.
  ASSERT_OK_AND_ASSIGN(RuntimeStats stats, client->Stats());
  EXPECT_FALSE(stats.replica);
  EXPECT_EQ(0u, stats.replication_epoch);
  EXPECT_OK(primary.LinkError());

  client.reset();
  primary.Stop();
}

}  // namespace
}  // namespace ltam
