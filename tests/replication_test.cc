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
// Each test wires nodes exactly the way ltam_serve --replica-of does:
// the embedding code owns the ReplicaLink and supplies the server's
// promote/repoint hooks. The whole suite runs under the TSan CI job —
// shipper threads, link threads, I/O loops, and the failover hooks
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
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "replication/epoch.h"
#include "replication/replica_link.h"
#include "runtime/access_runtime.h"
#include "service/client.h"
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

/// One server node, wired the way ltam_serve --replica-of wires it: the
/// node owns the runtime, the server, and (replica only) the upstream
/// link, and supplies the promote/repoint hooks that retire the link.
struct Node {
  std::string dir;
  std::unique_ptr<AccessRuntime> runtime;
  std::unique_ptr<ServiceServer> server;
  std::mutex link_mu;
  std::unique_ptr<ReplicaLink> link;
  uint16_t port = 0;

  /// upstream_port < 0 starts a primary; otherwise a replica following
  /// 127.0.0.1:upstream_port. `advertise_primary` mirrors what
  /// ltam_serve always does: write refusals carry the structured
  /// [primary=...] token, kept current across repoints and cleared on
  /// promotion. Default off so refusal-shape tests see the bare error.
  void Start(const World& w, const std::string& d, int upstream_port,
             bool advertise_primary = false, uint32_t shards = kShards) {
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
      ASSERT_OK(runtime->DemoteToReplica());
      if (advertise_primary) {
        runtime->SetPrimaryRedirect("127.0.0.1:" +
                                    std::to_string(upstream_port));
      }
      server_options.promote_hook = [this]() -> Result<uint64_t> {
        std::unique_ptr<ReplicaLink> retiring;
        {
          std::lock_guard<std::mutex> lock(link_mu);
          retiring = std::move(link);
        }
        // Outside the runtime lock: the link thread may need it to
        // finish an in-flight apply before it can join.
        if (retiring != nullptr) retiring->Stop();
        std::unique_lock<std::shared_mutex> wlock(server->runtime_mutex());
        Result<uint64_t> epoch = runtime->Promote();
        if (epoch.ok()) runtime->SetPrimaryRedirect("");
        return epoch;
      };
      server_options.repoint_hook = [this, advertise_primary](
                                        const std::string& host,
                                        uint16_t p) -> Status {
        std::lock_guard<std::mutex> lock(link_mu);
        if (link == nullptr) {
          return Status::FailedPrecondition(
              "not following an upstream (already promoted?)");
        }
        link->Repoint(host, p);
        if (advertise_primary) {
          std::unique_lock<std::shared_mutex> wlock(server->runtime_mutex());
          runtime->SetPrimaryRedirect(host + ":" + std::to_string(p));
        }
        return Status::OK();
      };
    }
    server = std::make_unique<ServiceServer>(runtime.get(), server_options);
    ASSERT_OK(server->Start());
    port = server->bound_port();
    if (upstream_port >= 0) {
      ReplicaLinkOptions link_options;
      link_options.reconnect_backoff_ms = 25;  // Fast retries for tests.
      auto fresh = std::make_unique<ReplicaLink>(
          runtime.get(), &server->runtime_mutex(), "127.0.0.1",
          static_cast<uint16_t>(upstream_port), link_options);
      fresh->Start();
      std::lock_guard<std::mutex> lock(link_mu);
      link = std::move(fresh);
    }
  }

  void Stop() {
    std::unique_ptr<ReplicaLink> retiring;
    {
      std::lock_guard<std::mutex> lock(link_mu);
      retiring = std::move(link);
    }
    if (retiring != nullptr) retiring->Stop();
    if (server != nullptr) server->Stop();
  }

  Status LinkError() {
    std::lock_guard<std::mutex> lock(link_mu);
    return link == nullptr ? Status::OK() : link->last_error();
  }

  uint64_t LinkApplied() {
    std::lock_guard<std::mutex> lock(link_mu);
    return link == nullptr ? 0 : link->records_applied();
  }
};

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

  // A replica refuses writes with a structured redirect — batch and
  // single-event paths both, before any traffic has flowed.
  Result<WireBatchResult> refused = replica_client->ApplyBatch(batches[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("replica"), std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("primary"), std::string::npos)
      << "the refusal must redirect to the primary, got: "
      << refused.status().ToString();
  Result<WireBatchResult> single = replica_client->ApplyBatch({batches[0][0]});
  ASSERT_FALSE(single.ok());
  EXPECT_TRUE(single.status().IsFailedPrecondition())
      << single.status().ToString();

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

TEST_F(ReplicationTest, OneShardPrimaryFeedsOneShardReplica) {
  // One shard is a full durable citizen: its single log ships and
  // applies like any shard of a multi-shard runtime.
  World w = MakeWorld(7101);
  auto batches = MakeBatches(w, /*total_events=*/320, 7109);

  Node primary;
  Node replica;
  primary.Start(w, root_ + "/primary", -1, /*advertise_primary=*/false,
                /*shards=*/1);
  replica.Start(w, root_ + "/replica", primary.port,
                /*advertise_primary=*/false, /*shards=*/1);
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
  replica.Start(w, root_ + "/replica", primary.port,
                /*advertise_primary=*/true);
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
  // ...and none of them may ever reach C: after several reconnect
  // cycles it still holds exactly the promoted lineage.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
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

}  // namespace
}  // namespace ltam
