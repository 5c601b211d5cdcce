// Copyright 2026 The LTAM Authors.
// ShardLog: the pipelined write-ahead log primitive. Batch mode must be
// byte-identical to driving a WalWriter directly (synchronous append,
// fsync per boundary, refusal on append failure); pipelined mode must
// advance the durability watermark asynchronously and freeze it on a
// sticky failure WITHOUT affecting accepted records' sequence numbers
// (the decision stream's proxy here). Runs under TSan via ci.sh (the
// log thread vs the appending/flushing threads is the whole point).

#include "storage/log_pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/codec.h"
#include "storage/wal.h"
#include "test_util.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

Record NumberedRecord(uint64_t n) {
  return Record{"rec", {std::to_string(n)}};
}

/// Replays the log file, returning the record numbers seen in order.
std::vector<uint64_t> ReplayAll(const std::string& path) {
  std::vector<uint64_t> out;
  Status replayed = ReplayWal(path, [&out](const Record& rec) {
    EXPECT_EQ(rec.type, "rec");
    out.push_back(std::stoull(rec.fields.at(0)));
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

  std::unique_ptr<ShardLog> MakeLog(DurabilityOptions options) {
    return std::make_unique<ShardLog>(
        WalWriter::Create(LogPath()).ValueOrDie(), options);
  }

  std::string dir_;
};

TEST_F(LogPipelineTest, BatchModeSyncsEveryBoundary) {
  DurabilityOptions options;
  options.mode = SyncMode::kBatch;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 6; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)));
    EXPECT_EQ(log->appended_seq(), i);
    if (i % 2 == 0) {
      ASSERT_OK(log->BatchBoundary());
      EXPECT_EQ(log->appended_seq(), i);
      // Group commit happened on this thread: durable == applied now.
      EXPECT_EQ(log->durable_seq(), i);
    }
  }
  EXPECT_EQ(log->appended_seq(), 6u);
  EXPECT_EQ(log->durable_seq(), 6u);
  log.reset();
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
  std::unique_ptr<ShardLog> log = MakeLog(options);
  ASSERT_OK(log->Append(NumberedRecord(1)));
  EXPECT_FALSE(log->Append(NumberedRecord(2)).ok())
      << "batch mode refuses synchronously (the event is then not applied)";
  ASSERT_OK(log->Append(NumberedRecord(3)));
  ASSERT_OK(log->BatchBoundary());
  EXPECT_EQ(log->appended_seq(), 2u) << "the refused record takes no seq";
  EXPECT_EQ(log->append_failures(), 1u);
  log.reset();
  EXPECT_EQ(ReplayAll(LogPath()), (std::vector<uint64_t>{1, 3}));
}

TEST_F(LogPipelineTest, PipelinedWatermarkCatchesUp) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)));
  }
  ASSERT_OK(log->BatchBoundary());
  EXPECT_EQ(log->appended_seq(), 10u);
  // No barrier: the log thread syncs on the drained queue's completed
  // group by itself.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log->durable_seq() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(log->durable_seq(), 10u);
  EXPECT_EQ(log->append_failures(), 0u);
  log.reset();
  std::vector<uint64_t> replayed = ReplayAll(LogPath());
  ASSERT_EQ(replayed.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(LogPipelineTest, PipelinedFlushIsABarrier) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)));
    if (i % 10 == 0) ASSERT_OK(log->BatchBoundary());
  }
  ASSERT_OK(log->Flush());
  EXPECT_EQ(log->durable_seq(), 50u);
  EXPECT_EQ(log->appended_seq(), 50u);
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
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    // Pipelined appends NEVER refuse: the events were already accepted.
    ASSERT_OK(log->Append(NumberedRecord(i)));
    EXPECT_EQ(log->appended_seq(), i);
  }
  Status boundary = log->BatchBoundary();
  // The boundary may or may not have observed the failure yet, but the
  // barrier must surface it, every time.
  EXPECT_FALSE(log->Flush().ok());
  EXPECT_FALSE(log->Flush().ok());
  (void)boundary;
  EXPECT_EQ(log->appended_seq(), 10u) << "accepted seqs never rewind";
  EXPECT_EQ(log->durable_seq(), 0u) << "nothing was fsynced";
  // Flush returns on the sticky error; the log thread may still be
  // dropping the queued suffix — poll the counter to its fixpoint.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log->append_failures() < 7 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log->append_failures(), 7u)
      << "the failed record and every dropped successor count";
  // Once sticky, the boundary keeps reporting trouble.
  EXPECT_FALSE(log->BatchBoundary().ok());
  log.reset();
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
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)));
  }
  ASSERT_TRUE(log->BatchBoundary().ok() || true);  // May race the failure.
  EXPECT_FALSE(log->Flush().ok());
  EXPECT_EQ(log->durable_seq(), 0u);
  EXPECT_GE(log->sync_failures(), 1u);
  EXPECT_FALSE(log->BatchBoundary().ok()) << "sticky after the first failure";
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
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 25; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)));
  }
  ASSERT_OK(log->BatchBoundary());
  log.reset();  // Clean shutdown: everything queued must reach the file.
  EXPECT_EQ(ReplayAll(LogPath()).size(), 25u);
}

}  // namespace
}  // namespace ltam
