// Copyright 2026 The LTAM Authors.
// LogPipeline: the write-ahead log primitive, one file per durable
// runtime and no thread of its own. It must advance the durability
// watermark at each barrier and freeze it on a sticky failure WITHOUT
// affecting accepted records' sequence numbers (the decision stream's
// proxy here). The primitive's cases run on a one-slot pipeline; the
// DurableLogTest cases drive the durable runtime's pipeline: writes and
// fsyncs on the flushing thread, one fsync per published batch, one
// round for concurrent flushers, a failure that freezes every shard's
// durability until a checkpoint, a batch's bytes in shard order, and a
// barrier that makes a tail with no batch boundary durable. Runs under
// TSan via ci.sh (flushers racing each other and the watermark readers
// are the point).

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

  /// A one-slot pipeline over LogPath().
  std::unique_ptr<LogPipeline> MakePipeline(DurabilityOptions options) {
    auto pipeline = std::make_unique<LogPipeline>(1, options);
    pipeline->SwapFile(FileWriter::Create(LogPath()).ValueOrDie());
    return pipeline;
  }

  std::string dir_;
};

TEST_F(LogPipelineTest, PipelinedWatermarkCatchesUp) {
  DurabilityOptions options;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    pipeline->Append(0, NumberedRecord(i));
  }
  ASSERT_OK(pipeline->Publish());
  EXPECT_EQ(pipeline->appended_seq(), 10u);
  // A publish writes nothing: durable trails applied until a barrier.
  EXPECT_EQ(pipeline->durable_seq(), 0u);
  ASSERT_OK(pipeline->Flush());
  EXPECT_EQ(pipeline->durable_seq(), 10u);
  EXPECT_EQ(pipeline->append_failures(), 0u);
  pipeline.reset();
  std::vector<uint64_t> replayed = ReplayAll(LogPath());
  ASSERT_EQ(replayed.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(LogPipelineTest, PipelinedFlushIsABarrier) {
  DurabilityOptions options;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  for (uint64_t i = 1; i <= 50; ++i) {
    pipeline->Append(0, NumberedRecord(i));
    if (i % 10 == 0) ASSERT_OK(pipeline->Publish());
  }
  ASSERT_OK(pipeline->Flush());
  EXPECT_EQ(pipeline->durable_seq(), 50u);
  EXPECT_EQ(pipeline->appended_seq(), 50u);
}

TEST_F(LogPipelineTest, PipelinedAppendFailureFreezesWatermark) {
  DurabilityOptions options;
  options.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count >= 4) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    // Appends NEVER refuse: the events were already accepted.
    pipeline->Append(0, NumberedRecord(i));
  }
  Status boundary = pipeline->Publish();
  EXPECT_EQ(pipeline->appended_seq(), 10u);
  // The boundary may or may not have observed the failure yet, but the
  // barrier must surface it, every time.
  EXPECT_FALSE(pipeline->Flush().ok());
  EXPECT_FALSE(pipeline->Flush().ok());
  (void)boundary;
  EXPECT_EQ(pipeline->appended_seq(), 10u) << "accepted seqs never rewind";
  EXPECT_EQ(pipeline->durable_seq(), 0u) << "nothing was fsynced";
  EXPECT_EQ(pipeline->append_failures(), 7u)
      << "the failed record and every dropped successor count";
  // Once sticky, every publish keeps reporting trouble.
  pipeline->Append(0, NumberedRecord(11));
  EXPECT_FALSE(pipeline->Publish().ok());
  pipeline.reset();
  // The file holds exactly the clean prefix — no holes.
  EXPECT_EQ(ReplayAll(LogPath()), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(LogPipelineTest, PipelinedSyncFailureIsSticky) {
  DurabilityOptions options;
  options.fault_injector = [](const char* op, uint64_t) {
    if (std::string(op) == "sync") {
      return Status::IOError("injected fsync failure");
    }
    return Status::OK();
  };
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    pipeline->Append(0, NumberedRecord(i));
  }
  (void)pipeline->Publish();  // May race the failure.
  EXPECT_FALSE(pipeline->Flush().ok());
  EXPECT_EQ(pipeline->durable_seq(), 0u);
  EXPECT_GE(pipeline->sync_failures(), 1u);
  EXPECT_FALSE(pipeline->Publish().ok()) << "sticky after the first failure";
}

TEST_F(LogPipelineTest, ParseSyncModeAcceptsOnlyPipelined) {
  ASSERT_OK_AND_ASSIGN(SyncMode parsed,
                       ParseSyncMode(SyncModeToString(SyncMode::kPipelined)));
  EXPECT_EQ(SyncMode::kPipelined, parsed);
  // Removed modes are refused with a message naming the one mode.
  for (const char* name : {"batch", "interval", "yolo"}) {
    Result<SyncMode> refused = ParseSyncMode(name);
    ASSERT_FALSE(refused.ok()) << name;
    EXPECT_TRUE(refused.status().IsInvalidArgument()) << name;
    EXPECT_NE(std::string::npos,
              refused.status().ToString().find("pipelined"))
        << refused.status().ToString();
  }
}

TEST_F(LogPipelineTest, DestructorDrainsAndSyncs) {
  DurabilityOptions options;
  std::unique_ptr<LogPipeline> pipeline = MakePipeline(options);
  for (uint64_t i = 1; i <= 25; ++i) {
    pipeline->Append(0, NumberedRecord(i));
  }
  ASSERT_OK(pipeline->Publish());
  for (uint64_t i = 26; i <= 30; ++i) {
    pipeline->Append(0, NumberedRecord(i));
  }
  // Clean shutdown: everything queued, and the unpublished tail, must
  // reach the file.
  pipeline.reset();
  EXPECT_EQ(ReplayAll(LogPath()).size(), 30u);
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

/// The lines of a log file, newline-stripped.
std::vector<std::string> WalLines(const std::string& path) {
  std::vector<std::string> lines;
  EXPECT_OK(ForEachWalLine(path, [&](std::string& line) {
    lines.push_back(line);
    return true;
  }));
  return lines;
}

/// The WAL line of `event`, newline-stripped.
std::string EventLine(const AccessEvent& event) {
  std::string line;
  AppendEventLine(event, &line);
  line.pop_back();
  return line;
}

TEST_F(DurableLogTest, FlushWritesOnTheCallingThread) {
  // The log runs no thread: the barrier's caller writes and fsyncs, so
  // the fault injector sees every "append" and "sync" on the thread
  // that called WaitDurable, and a checkpoint starts no thread either.
  auto seen = std::make_shared<std::vector<std::pair<std::string,
                                                     std::thread::id>>>();
  DurableShardedOptions options;
  options.num_shards = 4;
  options.durability.fault_injector = [seen](const char* op, uint64_t) {
    seen->emplace_back(op, std::this_thread::get_id());
    return Status::OK();
  };
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  Chronon t = 10;
  for (int round = 0; round < 2; ++round) {
    std::vector<AccessEvent> batch;
    for (uint32_t k = 0; k < 4; ++k) {
      for (const AccessEvent& e : EventsOn(k, 4, 3, t)) batch.push_back(e);
    }
    t += 10;
    (void)sys->engine().EvaluateBatch(batch);
    ASSERT_OK(sys->TakeBatchError());
    ASSERT_OK(sys->Checkpoint());
  }
  EXPECT_TRUE(testing_util::ThreadsNamed("ltam-wal").empty())
      << "after Open and two Checkpoints";
  seen->clear();
  std::vector<AccessEvent> batch;
  for (uint32_t k = 0; k < 4; ++k) {
    for (const AccessEvent& e : EventsOn(k, 4, 2, t)) batch.push_back(e);
  }
  (void)sys->engine().EvaluateBatch(batch);
  ASSERT_OK(sys->TakeBatchError());
  EXPECT_TRUE(seen->empty()) << "a batch publishes without writing";
  std::thread::id flusher;
  std::thread barrier([&sys, &flusher] {
    flusher = std::this_thread::get_id();
    EXPECT_OK(sys->WaitDurable());
  });
  barrier.join();
  ASSERT_EQ(batch.size() + 1, seen->size()) << "one call per record, one sync";
  for (const auto& [op, id] : *seen) {
    EXPECT_EQ(flusher, id) << op << " ran off the flushing thread";
  }
  EXPECT_EQ("sync", seen->back().first);
  const DurabilityWatermark mark = sys->Watermark();
  EXPECT_EQ(mark.applied, mark.durable);
}

TEST_F(DurableLogTest, ConcurrentFlushersShareOneRound) {
  // Two threads flush one published group: both return durable, and the
  // round that one of them runs covers the other, so the group costs
  // one fsync.
  MetricsRegistry registry;
  DurableShardedOptions options;
  options.num_shards = 2;
  options.durability.metrics = &registry;
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  Histogram* syncs = registry.GetHistogram("wal.sync");
  const uint64_t before = syncs->Snapshot().count();
  std::vector<AccessEvent> batch = EventsOn(0, 2, 5, 10);
  for (const AccessEvent& e : EventsOn(1, 2, 5, 10)) batch.push_back(e);
  (void)sys->engine().EvaluateBatch(batch);
  ASSERT_OK(sys->TakeBatchError());
  std::vector<std::thread> flushers;
  std::vector<DurabilityWatermark> marks(2);
  for (size_t i = 0; i < 2; ++i) {
    flushers.emplace_back([&sys, &marks, i] {
      EXPECT_OK(sys->WaitDurable());
      marks[i] = sys->Watermark();
    });
  }
  for (std::thread& f : flushers) f.join();
  for (const DurabilityWatermark& mark : marks) {
    EXPECT_EQ(batch.size(), mark.durable);
    EXPECT_EQ(mark.applied, mark.durable);
  }
  EXPECT_EQ(before + 1, syncs->Snapshot().count()) << "one fsync per group";
}

TEST_F(DurableLogTest, FailedLogFreezesEveryShardUntilACheckpoint) {
  // One log, one sticky error: the injected failure of the runtime's
  // 10th append (the second record of the second batch) drops every
  // later record of every shard, the watermark stays at the last fsync,
  // decisions are those of a clean run, and a checkpoint's file swap
  // repairs the log.
  const std::vector<std::pair<size_t, size_t>> shape = {
      {2, 6}, {3, 10}, {4, 1}, {2, 2}};
  auto run = [&](const std::string& dir, bool inject,
                 std::vector<Decision>* decisions,
                 std::vector<Alert>* alerts) {
    DurableShardedOptions options;
    options.num_shards = 2;
    if (inject) {
      options.durability.fault_injector = [](const char* op, uint64_t n) {
        if (std::string(op) == "append" && n == 10) {
          return Status::IOError("injected append failure");
        }
        return Status::OK();
      };
    }
    SystemState state;
    state.graph = state_.graph;
    state.profiles = state_.profiles;
    std::unique_ptr<DurableShardedSystem> sys =
        DurableShardedSystem::Open(dir, std::move(state), options)
            .ValueOrDie();
    Chronon t = 10;
    for (size_t b = 0; b < shape.size(); ++b) {
      std::vector<AccessEvent> batch = EventsOn(0, 2, shape[b].first, t);
      for (const AccessEvent& e : EventsOn(1, 2, shape[b].second, t)) {
        batch.push_back(e);
      }
      t += 100;
      for (const Decision& d : sys->engine().EvaluateBatch(batch)) {
        decisions->push_back(d);
      }
      for (const Alert& a : sys->DrainAlerts()) alerts->push_back(a);
      const Status published = sys->TakeBatchError();
      const Status waited = sys->WaitDurable();
      if (!inject) {
        EXPECT_OK(waited);
        continue;
      }
      const DurabilityWatermark mark = sys->Watermark();
      if (b == 0) {
        EXPECT_OK(waited);
        EXPECT_EQ(8u, mark.durable);
        continue;
      }
      if (b == 1) {
        EXPECT_FALSE(waited.ok()) << "the barrier reports the sticky error";
        EXPECT_NE(std::string::npos, waited.ToString().find("injected"))
            << waited.ToString();
        // The clean prefix is in the file: the first batch and the
        // second batch's first record.
        EXPECT_EQ(9u, WalLines(dir + "/events-0.wal").size());
      }
      if (b == 2) {
        EXPECT_FALSE(published.ok()) << "a sticky log fails every publish";
        EXPECT_FALSE(waited.ok());
        // Every later record of every shard is dropped and counted:
        // batch 2's 12 after the failed one, and batch 3's 5.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (sys->wal_append_failures() < 17 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(17u, sys->wal_append_failures());
        EXPECT_EQ(26u, mark.applied) << "appends never refuse";
        EXPECT_EQ(8u, mark.durable) << "frozen at the last fsync";
        EXPECT_EQ(9u, WalLines(dir + "/events-0.wal").size())
            << "nothing follows the hole";
        ASSERT_OK(sys->Checkpoint());
        const DurabilityWatermark repaired = sys->Watermark();
        EXPECT_EQ(repaired.applied, repaired.durable)
            << "the snapshot holds what the log lost";
      }
      if (b == 3) {
        // The checkpoint cleared the sticky error: the batch is durable.
        EXPECT_OK(published);
        EXPECT_OK(waited);
        EXPECT_EQ(30u, mark.durable);
        EXPECT_EQ(mark.applied, mark.durable);
        EXPECT_EQ(4u, WalLines(dir + "/events-1.wal").size());
        EXPECT_EQ(17u, sys->wal_append_failures()) << "counted since Open";
      }
    }
  };
  std::vector<Decision> clean_decisions, failed_decisions;
  std::vector<Alert> clean_alerts, failed_alerts;
  const std::string clean_dir = dir_ + "/clean";
  const std::string failed_dir = dir_ + "/failed";
  fs::create_directories(clean_dir);
  fs::create_directories(failed_dir);
  run(clean_dir, false, &clean_decisions, &clean_alerts);
  run(failed_dir, true, &failed_decisions, &failed_alerts);
  ASSERT_EQ(clean_decisions.size(), failed_decisions.size());
  for (size_t i = 0; i < clean_decisions.size(); ++i) {
    EXPECT_EQ(clean_decisions[i].granted, failed_decisions[i].granted) << i;
    EXPECT_EQ(clean_decisions[i].reason, failed_decisions[i].reason) << i;
    EXPECT_EQ(clean_decisions[i].auth, failed_decisions[i].auth) << i;
  }
  EXPECT_EQ(clean_alerts.size(), failed_alerts.size());
}

TEST_F(DurableLogTest, OneFsyncPerBatch) {
  // However many shards took records, a published batch costs one
  // write(2) and one fsync of the runtime's one file.
  MetricsRegistry registry;
  DurableShardedOptions options;
  options.num_shards = 4;
  options.durability.metrics = &registry;
  std::unique_ptr<DurableShardedSystem> sys = Open(options);
  const std::vector<std::vector<size_t>> shape = {
      {3, 4, 0, 1}, {0, 5, 2, 2}, {2, 0, 0, 0},
      {1, 1, 1, 1}, {6, 2, 0, 3}, {0, 3, 4, 0}};
  uint64_t batches = 0;
  Chronon t = 10;
  for (const std::vector<size_t>& counts : shape) {
    std::vector<AccessEvent> batch;
    for (uint32_t k = 0; k < 4; ++k) {
      for (const AccessEvent& e : EventsOn(k, 4, counts[k], t)) {
        batch.push_back(e);
      }
    }
    t += 20;
    (void)sys->engine().EvaluateBatch(batch);
    ASSERT_OK(sys->TakeBatchError());
    ASSERT_OK(sys->WaitDurable());
    ++batches;
    EXPECT_EQ(batches, registry.GetHistogram("wal.sync")->Snapshot().count());
  }
  const DurabilityWatermark mark = sys->Watermark();
  EXPECT_EQ(mark.applied, mark.durable);
}

TEST_F(DurableLogTest, SameBatchStreamWritesTheSameBytes) {
  // A batch's records reach the file in shard order, whichever worker
  // finished first, so the same stream writes byte-identical logs.
  std::vector<std::vector<AccessEvent>> batches;
  Chronon t = 10;
  for (size_t b = 0; b < 8; ++b) {
    // Interleave the shards' events inside each batch.
    std::vector<std::vector<AccessEvent>> per_shard;
    for (uint32_t k = 0; k < 4; ++k) {
      per_shard.push_back(EventsOn(k, 4, 1 + (b + k) % 4, t));
    }
    std::vector<AccessEvent> batch;
    for (size_t i = 0; i < 4; ++i) {
      for (uint32_t k = 0; k < 4; ++k) {
        if (i < per_shard[3 - k].size()) batch.push_back(per_shard[3 - k][i]);
      }
    }
    batches.push_back(std::move(batch));
    t += 10;
  }
  auto write = [&](const std::string& dir) {
    fs::create_directories(dir);
    DurableShardedOptions options;
    options.num_shards = 4;
    SystemState state;
    state.graph = state_.graph;
    state.profiles = state_.profiles;
    std::unique_ptr<DurableShardedSystem> sys =
        DurableShardedSystem::Open(dir, std::move(state), options)
            .ValueOrDie();
    for (const std::vector<AccessEvent>& batch : batches) {
      (void)sys->engine().EvaluateBatch(batch);
      EXPECT_OK(sys->TakeBatchError());
    }
    EXPECT_OK(sys->WaitDurable());
    sys.reset();
    std::ifstream in(dir + "/events-0.wal", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string first = write(dir_ + "/a");
  const std::string second = write(dir_ + "/b");
  EXPECT_EQ(first, second);
  // And the order is the shard order within each batch.
  std::string want;
  for (const std::vector<AccessEvent>& batch : batches) {
    for (uint32_t k = 0; k < 4; ++k) {
      for (const AccessEvent& e : batch) {
        if (ShardedDecisionEngine::ShardOfSubject(e.subject, 4) == k) {
          want += EventLine(e) + "\n";
        }
      }
    }
  }
  EXPECT_EQ(want, first);
}

TEST_F(DurableLogTest, BarrierMakesATailWithNoBoundaryDurable) {
  // Records appended since the last boundary are published by the
  // barrier itself, as a group of their own, so the round that drains
  // them fsyncs them like any batch. Slot 0 publishes a batch; slot 1
  // holds only such a tail.
  MetricsRegistry registry;
  DurabilityOptions options;
  options.metrics = &registry;
  LogPipeline pipeline(2, options);
  pipeline.SwapFile(FileWriter::Create(dir_ + "/log.wal").ValueOrDie());
  for (uint64_t i = 1; i <= 3; ++i) pipeline.Append(0, NumberedRecord(i));
  ASSERT_OK(pipeline.Publish());
  for (uint64_t i = 4; i <= 5; ++i) pipeline.Append(1, NumberedRecord(i));
  ASSERT_OK(pipeline.Flush());
  EXPECT_EQ(5u, pipeline.appended_seq());
  EXPECT_EQ(5u, pipeline.durable_seq()) << "the tail is durable";
  // One round per group, unless the first group's round had not run
  // before the barrier published the tail.
  const uint64_t syncs = registry.GetHistogram("wal.sync")->Snapshot().count();
  EXPECT_GE(syncs, 1u);
  EXPECT_LE(syncs, 2u);
  EXPECT_EQ((std::vector<uint64_t>{1, 2, 3, 4, 5}),
            ReplayAll(dir_ + "/log.wal"));
}

}  // namespace
}  // namespace ltam
