// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "storage/event_log.h"
#include "test_util.h"

namespace ltam {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ltam_wal_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
            ".log";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

/// `event`'s WAL line (with its newline).
std::string EventLine(const AccessEvent& event) {
  std::string line;
  AppendEventLine(event, &line);
  return line;
}

std::string TickLine(Chronon t) {
  std::string line;
  AppendTickLine(t, &line);
  return line;
}

TEST(WalFormatTest, EveryRecordKindRendersItsGoldenLine) {
  EXPECT_EQ("ev-entry\t7\t3\t9\n", EventLine(AccessEvent::Entry(7, 3, 9)));
  EXPECT_EQ("ev-exit\t-12\t4294967294\n",
            EventLine(AccessEvent::Exit(-12, 4294967294u)));
  EXPECT_EQ("ev-obs\t9223372036854775807\t0\t4294967294\n",
            EventLine(AccessEvent::Observe(INT64_MAX, 0, 4294967294u)));
  EXPECT_EQ("ev-tick\t42\n", TickLine(42));
}

TEST(WalFormatTest, GoldenLinesDecodeToTheirRecords) {
  ASSERT_OK_AND_ASSIGN(LoggedEvent entry, DecodeEventLine("ev-entry\t7\t3\t9"));
  EXPECT_FALSE(entry.is_tick);
  EXPECT_EQ(entry.event.kind, AccessEventKind::kRequestEntry);
  EXPECT_EQ(entry.event.time, 7);
  EXPECT_EQ(entry.event.subject, 3u);
  EXPECT_EQ(entry.event.location, 9u);
  ASSERT_OK_AND_ASSIGN(LoggedEvent exit,
                       DecodeEventLine("ev-exit\t-12\t4294967294"));
  EXPECT_EQ(exit.event.kind, AccessEventKind::kRequestExit);
  EXPECT_EQ(exit.event.time, -12);
  EXPECT_EQ(exit.event.subject, 4294967294u);
  ASSERT_OK_AND_ASSIGN(LoggedEvent obs, DecodeEventLine("ev-obs\t5\t0\t2"));
  EXPECT_EQ(obs.event.kind, AccessEventKind::kObserve);
  EXPECT_EQ(obs.event.location, 2u);
  ASSERT_OK_AND_ASSIGN(LoggedEvent tick, DecodeEventLine("ev-tick\t42"));
  EXPECT_TRUE(tick.is_tick);
  EXPECT_EQ(tick.tick_time, 42);
}

TEST_F(WalTest, WriteAndReplay) {
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(EventLine(AccessEvent::Entry(5, 1, 20))));
    ASSERT_OK(wal.Write(EventLine(AccessEvent::Observe(10, 0, 5)) +
                        TickLine(11)));
    ASSERT_OK(wal.Sync());
  }
  std::vector<LoggedEvent> replayed;
  ASSERT_OK(ReplayWal(path_, [&replayed](const LoggedEvent& event) {
    replayed.push_back(event);
    return Status::OK();
  }));
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].event.kind, AccessEventKind::kRequestEntry);
  EXPECT_EQ(replayed[0].event.location, 20u);
  EXPECT_EQ(replayed[1].event.kind, AccessEventKind::kObserve);
  EXPECT_EQ(replayed[1].event.time, 10);
  EXPECT_TRUE(replayed[2].is_tick);
  EXPECT_EQ(replayed[2].tick_time, 11);
}

TEST_F(WalTest, AppendIsDurableAcrossReopen) {
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(TickLine(1)));
  }
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(TickLine(2)));
  }
  size_t count = 0;
  ASSERT_OK(ReplayWal(path_, [&count](const LoggedEvent&) {
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 2u);
}

TEST_F(WalTest, CreateTruncatesALeftoverFile) {
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(TickLine(1) + TickLine(2)));
  }
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Create(path_));
    ASSERT_OK(wal.Write(TickLine(3)));
  }
  std::vector<Chronon> ticks;
  ASSERT_OK(ReplayWal(path_, [&ticks](const LoggedEvent& event) {
    ticks.push_back(event.tick_time);
    return Status::OK();
  }));
  EXPECT_EQ(ticks, std::vector<Chronon>{3});
}

TEST_F(WalTest, TornFinalLineIgnored) {
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(TickLine(1)));
  }
  {
    // Simulate a crash mid-append: no trailing newline.
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "ev-entry\t2\t3";
  }
  std::vector<Chronon> ticks;
  ASSERT_OK(ReplayWal(path_, [&ticks](const LoggedEvent& event) {
    EXPECT_TRUE(event.is_tick);
    ticks.push_back(event.tick_time);
    return Status::OK();
  }));
  EXPECT_EQ(ticks, std::vector<Chronon>{1});
}

TEST_F(WalTest, ReplayStopsAtAMalformedLine) {
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << TickLine(1) << "ev-tick\t+2\n" << TickLine(3);
  }
  size_t applied = 0;
  const Status st = ReplayWal(path_, [&applied](const LoggedEvent&) {
    ++applied;
    return Status::OK();
  });
  EXPECT_TRUE(st.IsParseError()) << st.ToString();
  EXPECT_EQ(applied, 1u);
}

TEST_F(WalTest, TruncateTornWalTailDropsExactlyTheTornBytes) {
  auto write = [this](const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  auto read = [this] {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string prefix =
      TickLine(1) + EventLine(AccessEvent::Entry(2, 0, 7));
  // A clean log loses nothing and stays byte-identical.
  write(prefix);
  ASSERT_OK_AND_ASSIGN(size_t clean, TruncateTornWalTail(path_));
  EXPECT_EQ(clean, 0u);
  EXPECT_EQ(read(), prefix);
  // A final record torn at every byte offset: exactly the torn bytes go.
  const std::string last = EventLine(AccessEvent::Observe(3, 1, 4));
  for (size_t cut = 0; cut <= last.size(); ++cut) {
    SCOPED_TRACE(cut);
    write(prefix + last.substr(0, cut));
    ASSERT_OK_AND_ASSIGN(size_t dropped, TruncateTornWalTail(path_));
    const bool whole = cut == last.size();
    EXPECT_EQ(dropped, whole ? 0u : cut);
    EXPECT_EQ(read(), whole ? prefix + last : prefix);
  }
  // No newline anywhere: the whole file is one torn record.
  write("torn\trecord-without-newline");
  ASSERT_OK_AND_ASSIGN(size_t all, TruncateTornWalTail(path_));
  EXPECT_EQ(all, std::string("torn\trecord-without-newline").size());
  EXPECT_EQ(read(), "");
}

TEST_F(WalTest, ReplayPropagatesApplyErrors) {
  {
    ASSERT_OK_AND_ASSIGN(FileWriter wal, FileWriter::Open(path_));
    ASSERT_OK(wal.Write(TickLine(1)));
  }
  Status st = ReplayWal(path_, [](const LoggedEvent&) {
    return Status::Internal("apply failed");
  });
  EXPECT_TRUE(st.IsInternal());
}

TEST_F(WalTest, ReplayMissingFileFails) {
  EXPECT_TRUE(ReplayWal("/nonexistent/dir/wal.log", [](const LoggedEvent&) {
                return Status::OK();
              }).IsIOError());
}

TEST_F(WalTest, OpenBadPathFails) {
  EXPECT_TRUE(
      FileWriter::Open("/nonexistent/dir/wal.log").status().IsIOError());
  EXPECT_TRUE(
      FileWriter::Create("/nonexistent/dir/wal.log").status().IsIOError());
}

TEST_F(WalTest, WriteFileAtomicallyReplacesAndLeavesNoTempFile) {
  ASSERT_OK(WriteFileAtomically(path_, "old\n"));
  ASSERT_OK(WriteFileAtomically(path_, "new\n"));
  std::ifstream in(path_, std::ios::binary);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>()),
            "new\n");
  EXPECT_FALSE(FileExists(path_ + ".tmp"));
  // A temp file that cannot be created fails and publishes nothing.
  EXPECT_TRUE(WriteFileAtomically("/nonexistent/dir/x", "y").IsIOError());
}

}  // namespace
}  // namespace ltam
