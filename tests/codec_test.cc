// Copyright 2026 The LTAM Authors.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ltam {
namespace {

std::string Escaped(const std::string& field) {
  std::string out;
  AppendEscapedField(field, &out);
  return out;
}

TEST(CodecTest, EscapeRoundTrip) {
  std::string nasty = "a\tb\nc\rd\\e";
  std::string escaped = Escaped(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::string back, UnescapeField(escaped));
  EXPECT_EQ(back, nasty);
}

TEST(CodecTest, EscapePlainIsIdentity) {
  EXPECT_EQ(Escaped("SCE.GO"), "SCE.GO");
  ASSERT_OK_AND_ASSIGN(std::string back, UnescapeField("SCE.GO"));
  EXPECT_EQ(back, "SCE.GO");
}

TEST(CodecTest, UnescapeRejectsBadEscapes) {
  EXPECT_TRUE(UnescapeField("abc\\").status().IsParseError());
  EXPECT_TRUE(UnescapeField("a\\qb").status().IsParseError());
}

TEST(CodecTest, RecordRoundTrip) {
  Record rec{"auth", {"1", "[5, 20]", "Alice\tBob", ""}};
  std::string line = EncodeRecord(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  ASSERT_OK_AND_ASSIGN(Record back, DecodeRecord(line));
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.fields, rec.fields);
}

TEST(CodecTest, RecordWithNoFields) {
  Record rec{"checkpoint", {}};
  ASSERT_OK_AND_ASSIGN(Record back, DecodeRecord(EncodeRecord(rec)));
  EXPECT_EQ(back.type, "checkpoint");
  EXPECT_TRUE(back.fields.empty());
}

TEST(CodecTest, DecodeRejectsEmptyLine) {
  EXPECT_TRUE(DecodeRecord("").status().IsParseError());
}

TEST(CodecTest, FieldsContainingEscapedTabsStaySeparate) {
  Record rec{"t", {"a\tb", "c"}};
  ASSERT_OK_AND_ASSIGN(Record back, DecodeRecord(EncodeRecord(rec)));
  ASSERT_EQ(back.fields.size(), 2u);
  EXPECT_EQ(back.fields[0], "a\tb");
  EXPECT_EQ(back.fields[1], "c");
}

}  // namespace
}  // namespace ltam
