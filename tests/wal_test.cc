// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

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

TEST_F(WalTest, AppendAndReplay) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"auth", {"1", "[5, 20]"}}));
    ASSERT_OK(wal.Append({"move", {"10", "0", "5"}}));
    ASSERT_OK(wal.Sync());
    EXPECT_EQ(wal.appended(), 2u);
  }
  std::vector<Record> replayed;
  ASSERT_OK(ReplayWal(path_, [&replayed](const Record& rec) {
    replayed.push_back(rec);
    return Status::OK();
  }));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].type, "auth");
  EXPECT_EQ(replayed[1].type, "move");
  EXPECT_EQ(replayed[1].fields, (std::vector<std::string>{"10", "0", "5"}));
}

TEST_F(WalTest, AppendIsDurableAcrossReopen) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"first", {}}));
  }
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"second", {}}));
  }
  size_t count = 0;
  ASSERT_OK(ReplayWal(path_, [&count](const Record&) {
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 2u);
}

TEST_F(WalTest, TornFinalLineIgnored) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"good", {"1"}}));
  }
  {
    // Simulate a crash mid-append: no trailing newline.
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "torn\trecord-without-newline";
  }
  std::vector<std::string> types;
  ASSERT_OK(ReplayWal(path_, [&types](const Record& rec) {
    types.push_back(rec.type);
    return Status::OK();
  }));
  EXPECT_EQ(types, std::vector<std::string>{"good"});
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
  const std::string prefix = EncodeRecord({"good", {"1"}}) + "\n" +
                             EncodeRecord({"good", {"2", "x y"}}) + "\n";
  // A clean log loses nothing and stays byte-identical.
  write(prefix);
  ASSERT_OK_AND_ASSIGN(size_t clean, TruncateTornWalTail(path_));
  EXPECT_EQ(clean, 0u);
  EXPECT_EQ(read(), prefix);
  // A final record torn at every byte offset: exactly the torn bytes go.
  const std::string last = EncodeRecord({"last", {"3", "tail"}}) + "\n";
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
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"x", {}}));
  }
  Status st = ReplayWal(path_, [](const Record&) {
    return Status::Internal("apply failed");
  });
  EXPECT_TRUE(st.IsInternal());
}

TEST_F(WalTest, ReplayMissingFileFails) {
  EXPECT_TRUE(ReplayWal("/nonexistent/dir/wal.log", [](const Record&) {
                return Status::OK();
              }).IsIOError());
}

TEST_F(WalTest, OpenBadPathFails) {
  EXPECT_TRUE(WalWriter::Open("/nonexistent/dir/wal.log").status().IsIOError());
}

}  // namespace
}  // namespace ltam
