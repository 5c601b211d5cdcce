// Copyright 2026 The LTAM Authors.
// ShardLog: the pipelined write-ahead log primitive. Batch mode must be
// byte-identical to driving a WalWriter directly (synchronous append,
// fsync per boundary, refusal on append failure); pipelined/interval
// modes must advance the durability watermark asynchronously, freeze it
// on a sticky failure WITHOUT affecting accepted records' sequence
// numbers (the decision stream's proxy here), and rotate numbered
// segments once the size threshold trips. Runs under TSan via ci.sh
// (the log thread vs the appending/flushing threads is the whole
// point).

#include "storage/log_pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
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

/// Replays every segment in order, returning the record numbers seen.
std::vector<uint64_t> ReplayAll(const std::vector<std::string>& segments) {
  std::vector<uint64_t> out;
  for (const std::string& path : segments) {
    Status replayed = ReplayWal(path, [&out](const Record& rec) {
      EXPECT_EQ(rec.type, "rec");
      out.push_back(std::stoull(rec.fields.at(0)));
      return Status::OK();
    });
    EXPECT_OK(replayed);
  }
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

  std::string SegmentPath(uint32_t seg) const {
    return dir_ + "/seg-" + std::to_string(seg) + ".wal";
  }

  /// Builds a log over segment 0 with a rotation callback that creates
  /// numbered segment files and records their names (thread-safely: the
  /// callback runs on the log thread).
  std::unique_ptr<ShardLog> MakeLog(DurabilityOptions options) {
    WalWriter writer = WalWriter::Create(SegmentPath(0)).ValueOrDie();
    {
      std::lock_guard<std::mutex> lock(segments_mu_);
      segments_ = {SegmentPath(0)};
    }
    return std::make_unique<ShardLog>(
        std::move(writer), /*writer_bytes=*/0, /*segment_index=*/0, options,
        [this](uint32_t seg) -> Result<WalWriter> {
          LTAM_ASSIGN_OR_RETURN(WalWriter next,
                                WalWriter::Create(SegmentPath(seg)));
          std::lock_guard<std::mutex> lock(segments_mu_);
          segments_.push_back(SegmentPath(seg));
          return next;
        });
  }

  std::vector<std::string> Segments() {
    std::lock_guard<std::mutex> lock(segments_mu_);
    return segments_;
  }

  std::string dir_;
  std::mutex segments_mu_;
  std::vector<std::string> segments_;
};

TEST_F(LogPipelineTest, BatchModeSyncsEveryBoundary) {
  DurabilityOptions options;
  options.mode = SyncMode::kBatch;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 6; ++i) {
    ASSERT_OK_AND_ASSIGN(CommitTicket ticket, log->Append(NumberedRecord(i)));
    EXPECT_EQ(ticket.seq, i);
    if (i % 2 == 0) {
      ASSERT_OK_AND_ASSIGN(CommitTicket boundary, log->BatchBoundary());
      EXPECT_EQ(boundary.seq, i);
      // Group commit happened on this thread: durable == applied now.
      EXPECT_EQ(log->durable_seq(), i);
    }
  }
  EXPECT_EQ(log->appended_seq(), 6u);
  EXPECT_EQ(log->durable_seq(), 6u);
  log.reset();
  EXPECT_EQ(ReplayAll(Segments()).size(), 6u);
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
  ASSERT_OK(log->Append(NumberedRecord(1)).status());
  EXPECT_FALSE(log->Append(NumberedRecord(2)).ok())
      << "batch mode refuses synchronously (the event is then not applied)";
  ASSERT_OK(log->Append(NumberedRecord(3)).status());
  ASSERT_OK(log->BatchBoundary().status());
  EXPECT_EQ(log->appended_seq(), 2u) << "the refused record takes no seq";
  EXPECT_EQ(log->append_failures(), 1u);
  log.reset();
  EXPECT_EQ(ReplayAll(Segments()), (std::vector<uint64_t>{1, 3}));
}

TEST_F(LogPipelineTest, PipelinedWatermarkCatchesUp) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.pipeline_depth = 4;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  CommitTicket last{};
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_OK_AND_ASSIGN(last, log->Append(NumberedRecord(i)));
  }
  ASSERT_OK_AND_ASSIGN(CommitTicket boundary, log->BatchBoundary());
  EXPECT_EQ(boundary.seq, 10u);
  EXPECT_EQ(last.seq, 10u);
  // The ticket is redeemable: the log thread syncs on the drained
  // queue's completed group without any explicit barrier.
  ASSERT_OK(log->WaitDurable(last.seq));
  EXPECT_GE(log->durable_seq(), 10u);
  EXPECT_EQ(log->append_failures(), 0u);
  log.reset();
  std::vector<uint64_t> replayed = ReplayAll(Segments());
  ASSERT_EQ(replayed.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(LogPipelineTest, PipelinedFlushIsABarrier) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.pipeline_depth = 1000;           // Never sync on depth...
  options.max_unsynced_bytes = 1u << 30;   // ...or on bytes.
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)).status());
    if (i % 10 == 0) ASSERT_OK(log->BatchBoundary().status());
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
    ASSERT_OK_AND_ASSIGN(CommitTicket t, log->Append(NumberedRecord(i)));
    EXPECT_EQ(t.seq, i);
  }
  Result<CommitTicket> boundary = log->BatchBoundary();
  // The boundary may or may not have observed the failure yet, but the
  // barrier must surface it.
  EXPECT_FALSE(log->Flush().ok());
  EXPECT_FALSE(log->WaitDurable(10).ok());
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
  EXPECT_EQ(ReplayAll(Segments()), (std::vector<uint64_t>{1, 2, 3}));
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
    ASSERT_OK(log->Append(NumberedRecord(i)).status());
  }
  ASSERT_TRUE(log->BatchBoundary().ok() || true);  // May race the failure.
  EXPECT_FALSE(log->Flush().ok());
  EXPECT_EQ(log->durable_seq(), 0u);
  EXPECT_GE(log->sync_failures(), 1u);
  EXPECT_FALSE(log->BatchBoundary().ok()) << "sticky after the first failure";
}

TEST_F(LogPipelineTest, IntervalModeSyncsOnTimer) {
  DurabilityOptions options;
  options.mode = SyncMode::kInterval;
  options.sync_interval_ms = 1;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  ASSERT_OK(log->Append(NumberedRecord(1)).status());
  ASSERT_OK(log->BatchBoundary().status());
  // No barrier: the timer alone must land the fsync.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log->durable_seq() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log->durable_seq(), 1u);
}

TEST_F(LogPipelineTest, RotationProducesNumberedSegments) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.pipeline_depth = 1;
  options.segment_max_bytes = 32;  // A handful of records per segment.
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 40; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)).status());
    ASSERT_OK(log->BatchBoundary().status());
    // Rotation is checked once per fsync; the barrier forces one, so
    // every over-threshold decade rotates deterministically.
    if (i % 10 == 0) ASSERT_OK(log->Flush());
  }
  ASSERT_OK(log->Flush());
  EXPECT_GE(log->segment_index(), 2u);
  log.reset();
  std::vector<std::string> segments = Segments();
  ASSERT_GE(segments.size(), 3u);
  // Every record survives, in order, across the segment chain.
  std::vector<uint64_t> replayed = ReplayAll(segments);
  ASSERT_EQ(replayed.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(LogPipelineTest, BatchModeRotatesAfterGroupCommit) {
  DurabilityOptions options;
  options.mode = SyncMode::kBatch;
  options.segment_max_bytes = 64;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 20; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)).status());
    ASSERT_OK(log->BatchBoundary().status());
  }
  EXPECT_GE(log->segment_index(), 1u);
  log.reset();
  EXPECT_EQ(ReplayAll(Segments()).size(), 20u);
}

TEST_F(LogPipelineTest, ParseSyncModeRoundTrips) {
  for (SyncMode mode :
       {SyncMode::kBatch, SyncMode::kPipelined, SyncMode::kInterval}) {
    ASSERT_OK_AND_ASSIGN(SyncMode parsed,
                         ParseSyncMode(SyncModeToString(mode)));
    EXPECT_EQ(parsed, mode);
  }
  EXPECT_FALSE(ParseSyncMode("yolo").ok());
}

TEST_F(LogPipelineTest, DestructorDrainsAndSyncs) {
  DurabilityOptions options;
  options.mode = SyncMode::kPipelined;
  options.pipeline_depth = 1000;
  options.max_unsynced_bytes = 1u << 30;
  std::unique_ptr<ShardLog> log = MakeLog(options);
  for (uint64_t i = 1; i <= 25; ++i) {
    ASSERT_OK(log->Append(NumberedRecord(i)).status());
  }
  ASSERT_OK(log->BatchBoundary().status());
  log.reset();  // Clean shutdown: everything queued must reach the file.
  EXPECT_EQ(ReplayAll(Segments()).size(), 25u);
}

}  // namespace
}  // namespace ltam
