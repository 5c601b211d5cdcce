// Copyright 2026 The LTAM Authors.
// LogPipeline: the write-ahead log primitive, one ShardLog per shard and
// one log thread for them all. Batch mode must be byte-identical to
// driving a FileWriter directly (synchronous append, fsync per boundary,
// refusal on append failure); pipelined mode must advance the
// durability watermark asynchronously and freeze it on a sticky failure
// WITHOUT affecting accepted records' sequence numbers (the decision
// stream's proxy here). The primitive's cases run on a one-shard
// pipeline; the DurableLogTest cases drive the durable runtime's
// pipeline: one log thread per runtime, a failure that freezes only its
// own shard, and an fsync for every shard that took records. Runs under
// TSan via ci.sh (the log thread vs the appending/flushing threads is
// the whole point).

#include "storage/log_pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/durable_sharded_system.h"
#include "storage/event_log.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

/// Record n of a test stream: a patrol tick at time n.
LoggedEvent NumberedRecord(uint64_t n) {
  return LoggedEvent::Tick(static_cast<Chronon>(n));
}

/// Replays the log file, returning the record numbers seen in order.
std::vector<uint64_t> ReplayAll(const std::string& path) {
  std::vector<uint64_t> out;
  Status replayed = ReplayWal(path, [&out](const LoggedEvent& rec) {
    EXPECT_TRUE(rec.is_tick);
    out.push_back(static_cast<uint64_t>(rec.tick_time));
    return Status::OK();
  });
  EXPECT_OK(replayed);
  return out;
}

class LogPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ltam_logpipe_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string LogPath() const { return dir_ + "/shard.wal"; }

  /// A one-shard pipeline over LogPath().
  std::unique_ptr<LogPipeline> MakePipeline(DurabilityOptions options) {
    std::vector<FileWriter> writers;
    writers.push_back(FileWriter::Create(LogPath()).ValueOrDie());
    return std::make_unique<LogPipeline>(std::move(writers), options);
  }

  std::string dir_;
};

TEST_F(LogPipelineTest, BatchModeSyncsEveryBoundary) {
  DurabilityOptions options;
  options.mode = SyncMode::kBatch;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 6; ++i) {
    ASSERT_OK(log.Append(NumberedRecord(i)));
    EXPECT_EQ(log.appended_seq(), i);
    if (i % 2 == 0) {
      ASSERT_OK(log.BatchBoundary());
      EXPECT_EQ(log.appended_seq(), i);
      // Group commit happened on this thread: durable == applied now.
      EXPECT_EQ(log.durable_seq(), i);
    }
  }
  EXPECT_EQ(log.appended_seq(), 6u);
  EXPECT_EQ(log.durable_seq(), 6u);
  pipeline.reset();
  EXPECT_EQ(ReplayAll(LogPath()).size(), 6u);
}

TEST_F(LogPipelineTest, BatchModeAppendFailureRefuses) {
  DurabilityOptions options;
  options.mode = SyncMode::kBatch;
  options.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count == 2) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  ASSERT_OK(log.Append(NumberedRecord(1)));
  EXPECT_FALSE(log.Append(NumberedRecord(2)).ok())
      << "batch mode refuses synchronously (the event is then not applied)";
  ASSERT_OK(log.Append(NumberedRecord(3)));
  ASSERT_OK(log.BatchBoundary());
  EXPECT_EQ(log.appended_seq(), 2u) << "the refused record takes no seq";
  EXPECT_EQ(log.append_failures(), 1u);
  pipeline.reset();
  EXPECT_EQ(ReplayAll(LogPath()), (std::vector<uint64_t>{1, 3}));
}

TEST_F(LogPipelineTest, PipelinedWatermarkCatchesUp) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_OK(log.Append(NumberedRecord(i)));
  }
  ASSERT_OK(log.BatchBoundary());
  pipeline->Wake();
  EXPECT_EQ(log.appended_seq(), 10u);
  // No barrier: woken once, the log thread syncs on the drained queue's
  // completed group by itself.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log.durable_seq() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(log.durable_seq(), 10u);
  EXPECT_EQ(log.append_failures(), 0u);
  pipeline.reset();
  std::vector<uint64_t> replayed = ReplayAll(LogPath());
  ASSERT_EQ(replayed.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(LogPipelineTest, PipelinedFlushIsABarrier) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_OK(log.Append(NumberedRecord(i)));
    if (i % 10 == 0) {
      ASSERT_OK(log.BatchBoundary());
      pipeline->Wake();
    }
  }
  ASSERT_OK(pipeline->Flush());
  EXPECT_EQ(log.durable_seq(), 50u);
  EXPECT_EQ(log.appended_seq(), 50u);
}

TEST_F(LogPipelineTest, PipelinedAppendFailureFreezesWatermark) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count >= 4) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 10; ++i) {
    // Pipelined appends NEVER refuse: the events were already accepted.
    ASSERT_OK(log.Append(NumberedRecord(i)));
    EXPECT_EQ(log.appended_seq(), i);
  }
  Status boundary = log.BatchBoundary();
  // The boundary may or may not have observed the failure yet, but the
  // barrier must surface it, every time.
  EXPECT_FALSE(pipeline->Flush().ok());
  EXPECT_FALSE(pipeline->Flush().ok());
  (void)boundary;
  EXPECT_EQ(log.appended_seq(), 10u) << "accepted seqs never rewind";
  EXPECT_EQ(log.durable_seq(), 0u) << "nothing was fsynced";
  // Flush returns on the sticky error; the log thread may still be
  // dropping the queued suffix — poll the counter to its fixpoint.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log.append_failures() < 7 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log.append_failures(), 7u)
      << "the failed record and every dropped successor count";
  // Once sticky, the boundary keeps reporting trouble.
  EXPECT_FALSE(log.BatchBoundary().ok());
  pipeline.reset();
  // The file holds exactly the clean prefix — no holes.
  EXPECT_EQ(ReplayAll(LogPath()), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(LogPipelineTest, PipelinedSyncFailureIsSticky) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.fault_injector = [](const char* op, uint64_t) {
    if (std::string(op) == "sync") {
      return Status::IOError("injected fsync failure");
    }
    return Status::OK();
  };
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_OK(log.Append(NumberedRecord(i)));
  }
  ASSERT_TRUE(log.BatchBoundary().ok() || true);  // May race the failure.
  EXPECT_FALSE(pipeline->Flush().ok());
  EXPECT_EQ(log.durable_seq(), 0u);
  EXPECT_GE(log.sync_failures(), 1u);
  EXPECT_FALSE(log.BatchBoundary().ok()) << "sticky after the first failure";
}

TEST_F(LogPipelineTest, ParseSyncModeRoundTrips) {
  for (SyncMode mode : {SyncMode::kBatch, SyncMode::kPipelined}) {
    ASSERT_OK_AND_ASSIGN(SyncMode parsed,
                         ParseSyncMode(SyncModeToString(mode)));
    EXPECT_EQ(parsed, mode);
  }
  EXPECT_FALSE(ParseSyncMode("yolo").ok());
  EXPECT_FALSE(ParseSyncMode("interval").ok());
}

TEST_F(LogPipelineTest, DestructorDrainsAndSyncs) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  ShardLog& log = pipeline->shard(0);
  for (uint64_t i = 1; i <= 25; ++i) {
    ASSERT_OK(log.Append(NumberedRecord(i)));
  }
  ASSERT_OK(log.BatchBoundary());
  pipeline.reset();  // Clean shutdown: everything queued must reach the file.
  EXPECT_EQ(ReplayAll(LogPath()).size(), 25u);
}

/// The durable runtime's pipeline: a small grid world whose subjects the
/// tests pick by shard.
class DurableLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ltam_durable_log_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    state_.graph = MakeGridGraph(4, 4).ValueOrDie();
    subjects_ = GenerateSubjects(&state_.profiles, 16);
    entry_ = state_.graph.EntryPrimitives(state_.graph.root()).at(0);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<DurableShardedSystem> Open(DurableShardedOptions options) {
    SystemState state;
    state.graph = state_.graph;
    state.profiles = state_.profiles;
    return DurableShardedSystem::Open(dir_, std::move(state), options)
        .ValueOrDie();
  }

  /// `count` entry requests by the subjects of shard `shard` (of
  /// `num_shards`), at times from `t0` on; each logs one record whatever
  /// its decision.
  std::vector<AccessEvent> EventsOn(uint32_t shard, uint32_t num_shards,
                                    size_t count, Chronon t0) const {
    std::vector<SubjectId> mine;
    for (SubjectId s : subjects_) {
      if (ShardedDecisionEngine::ShardOfSubject(s, num_shards) == shard) {
        mine.push_back(s);
      }
    }
    EXPECT_FALSE(mine.empty()) << "no subject on shard " << shard;
    std::vector<AccessEvent> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(AccessEvent::Entry(t0 + static_cast<Chronon>(i),
                                       mine[i % mine.size()], entry_));
    }
    return out;
  }

  std::string dir_;
  SystemState state_;
  std::vector<SubjectId> subjects_;
  LocationId entry_ = kInvalidLocation;
};

/// Threads of this process named `name` (/proc/self/task/*/comm).
size_t ThreadsNamed(const std::string& name) {
  size_t count = 0;
  for (const fs::directory_entry& task :
       fs::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string line;
    if (std::getline(comm, line) && line == name) ++count;
  }
  return count;
}

TEST_F(DurableLogTest, OnePipelinedRuntimeRunsOneLogThread) {
  DurableShardedOptions options;
  options.num_shards = 4;
  options.durability.mode = SyncMode::kPipelined;
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  EXPECT_EQ(1u, ThreadsNamed("ltam-wal")) << "after Open";
  std::vector<AccessEvent> batch;
  for (uint32_t k = 0; k < 4; ++k) {
    for (const AccessEvent& e : EventsOn(k, 4, 3, 10)) batch.push_back(e);
  }
  (void)sys->engine().EvaluateBatch(batch);
  ASSERT_OK(sys->engine().TakeBatchError());
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(1u, ThreadsNamed("ltam-wal")) << "after a Checkpoint";
  sys.reset();
  EXPECT_EQ(0u, ThreadsNamed("ltam-wal")) << "after teardown";

  // Batch mode syncs on the appending threads and starts no log thread.
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  options.durability.mode = SyncMode::kBatch;
  sys = Open(options);
  EXPECT_EQ(0u, ThreadsNamed("ltam-wal"));
}

TEST_F(DurableLogTest, FailedShardFreezesAlone) {
  // Append attempts are counted per shard: shard 1 takes 6 + 10 records
  // and fails from its 10th, shard 0 takes 2 + 3 and never gets there.
  DurableShardedOptions options;
  options.num_shards = 2;
  options.durability.mode = SyncMode::kPipelined;
  options.durability.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count >= 10) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  std::vector<AccessEvent> accepted_on_0;
  auto apply = [&](size_t on_0, size_t on_1, Chronon t0) {
    std::vector<AccessEvent> batch = EventsOn(0, 2, on_0, t0);
    accepted_on_0.insert(accepted_on_0.end(), batch.begin(), batch.end());
    for (const AccessEvent& e : EventsOn(1, 2, on_1, t0)) batch.push_back(e);
    std::vector<Decision> decisions = sys->engine().EvaluateBatch(batch);
    EXPECT_EQ(batch.size(), decisions.size());
    (void)sys->engine().TakeBatchError();
  };
  apply(2, 6, 10);
  ASSERT_OK(sys->WaitDurable());
  const DurabilityWatermark before = sys->ShardWatermark(1);
  EXPECT_EQ(6u, before.durable);

  apply(3, 10, 100);
  const Status waited = sys->WaitDurable();
  EXPECT_FALSE(waited.ok()) << "the barrier reports shard 1's sticky error";
  EXPECT_NE(std::string::npos, waited.ToString().find("injected"))
      << waited.ToString();
  const DurabilityWatermark frozen = sys->ShardWatermark(1);
  EXPECT_EQ(16u, frozen.applied) << "pipelined appends never refuse";
  EXPECT_EQ(before.durable, frozen.durable) << "shard 1's watermark froze";
  EXPECT_EQ(7u, sys->wal_append_failures())
      << "shard 1's failed record and its dropped successors";
  const DurabilityWatermark healthy = sys->ShardWatermark(0);
  EXPECT_EQ(5u, healthy.applied);
  EXPECT_EQ(healthy.applied, healthy.durable) << "shard 0 kept logging";

  sys.reset();
  // Shard 0's file holds every record it accepted, in order; shard 1's
  // holds its clean prefix.
  std::vector<std::string> want;
  for (const AccessEvent& e : accepted_on_0) {
    std::string line;
    AppendEventLine(e, &line);
    line.pop_back();
    want.push_back(std::move(line));
  }
  std::vector<std::string> got;
  ASSERT_OK(ForEachWalLine(dir_ + "/events-0-0.wal", [&](std::string& line) {
    got.push_back(line);
    return true;
  }));
  EXPECT_EQ(want, got);
  size_t shard1_lines = 0;
  ASSERT_OK(ForEachWalLine(dir_ + "/events-1-0.wal", [&](std::string&) {
    ++shard1_lines;
    return true;
  }));
  EXPECT_EQ(9u, shard1_lines);
}

TEST_F(DurableLogTest, EveryShardThatTookRecordsIsSynced) {
  // One fsync per (batch, shard that took records), as with a log thread
  // per shard: waking the log once per batch must not skip a file.
  MetricsRegistry registry;
  DurableShardedOptions options;
  options.num_shards = 2;
  options.durability.mode = SyncMode::kPipelined;
  options.durability.metrics = &registry;
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  const std::vector<std::pair<size_t, size_t>> shape = {
      {3, 4}, {0, 5}, {2, 0}, {1, 1}, {6, 2}, {0, 3}};
  uint64_t expected_syncs = 0;
  Chronon t = 10;
  for (const auto& [on_0, on_1] : shape) {
    std::vector<AccessEvent> batch = EventsOn(0, 2, on_0, t);
    for (const AccessEvent& e : EventsOn(1, 2, on_1, t)) batch.push_back(e);
    t += 20;
    (void)sys->engine().EvaluateBatch(batch);
    ASSERT_OK(sys->engine().TakeBatchError());
    ASSERT_OK(sys->WaitDurable());
    expected_syncs += (on_0 > 0 ? 1 : 0) + (on_1 > 0 ? 1 : 0);
    EXPECT_EQ(expected_syncs,
              registry.GetHistogram("wal.sync")->Snapshot().count());
  }
  const DurabilityWatermark mark = sys->Watermark();
  EXPECT_EQ(mark.applied, mark.durable);
  EXPECT_GT(mark.durable_ns, 0u);
}

}  // namespace
}  // namespace ltam
