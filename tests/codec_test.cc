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

TEST(CodecTest, LineRendersTagFieldsAndNewline) {
  std::string out;
  Line(&out, "auth").Num(1).Str("[5, 20]").Str("Alice\tBob").Str("");
  Line(&out, "pt").Num(int64_t{-7}).Real(0.1).Num(uint32_t{4294967295});
  Line(&out, "checkpoint");
  EXPECT_EQ(out,
            "auth\t1\t[5, 20]\tAlice\\tBob\t\n"
            "pt\t-7\t0.10000000000000001\t4294967295\n"
            "checkpoint\n");
}

TEST(CodecTest, ReaderWalksFieldsInPlace) {
  LineReader rec("auth\t1\t[5, 20]\tAlice\\tBob\t\t-3\t2.5\tderived");
  EXPECT_EQ(rec.tag(), "auth");
  EXPECT_EQ(rec.remaining(), 7u);
  ASSERT_OK_AND_ASSIGN(uint32_t id, rec.Id());
  EXPECT_EQ(id, 1u);
  ASSERT_OK_AND_ASSIGN(std::string interval, rec.Str());
  EXPECT_EQ(interval, "[5, 20]");
  ASSERT_OK_AND_ASSIGN(std::string names, rec.Str());
  EXPECT_EQ(names, "Alice\tBob");
  ASSERT_OK_AND_ASSIGN(std::string empty, rec.Str());
  EXPECT_EQ(empty, "");
  EXPECT_EQ(rec.remaining(), 3u);
  ASSERT_OK_AND_ASSIGN(int64_t n, rec.Int());
  EXPECT_EQ(n, -3);
  ASSERT_OK_AND_ASSIGN(double x, rec.Real());
  EXPECT_EQ(x, 2.5);
  EXPECT_FALSE(rec.TakeIf("explicit"));
  ASSERT_OK_AND_ASSIGN(std::string_view origin,
                       rec.Word({"derived", "explicit"}));
  EXPECT_EQ(origin, "derived");
  EXPECT_EQ(rec.remaining(), 0u);
  EXPECT_OK(rec.End());
  EXPECT_TRUE(rec.Str().status().IsParseError()) << "no field is left";
}

TEST(CodecTest, RecordWithNoFields) {
  LineReader rec("checkpoint");
  EXPECT_EQ(rec.tag(), "checkpoint");
  EXPECT_EQ(rec.remaining(), 0u);
  EXPECT_OK(rec.End());
  // A trailing tab is one empty field, not none.
  LineReader empty_field("checkpoint\t");
  EXPECT_EQ(empty_field.remaining(), 1u);
  EXPECT_TRUE(empty_field.End().IsParseError());
}

TEST(CodecTest, ReaderRefusesLeftoverFields) {
  LineReader rec("edge\t1\t2\t99");
  ASSERT_OK(rec.Id().status());
  ASSERT_OK(rec.Id().status());
  const Status end = rec.End();
  EXPECT_TRUE(end.IsParseError());
  EXPECT_NE(end.message().find("has 3 fields, expected 2"), std::string::npos)
      << end.ToString();
}

TEST(CodecTest, IntegersAreExactlyOptionalMinusAndDigits) {
  for (const char* good : {"0", "-0", "007", "-9223372036854775808",
                           "9223372036854775807"}) {
    SCOPED_TRACE(good);
    const std::string line = std::string("t\t") + good;
    LineReader rec(line);
    EXPECT_OK(rec.Int().status());
  }
  for (const char* bad : {"", "+1", " 2", "2 ", "1\\n", "1\\t", "0x10", "1e3",
                          "-", "--1", "1.0", "9223372036854775808",
                          "-9223372036854775809"}) {
    SCOPED_TRACE(bad);
    const std::string line = std::string("t\t") + bad;
    LineReader rec(line);
    EXPECT_TRUE(rec.Int().status().IsParseError());
  }
}

TEST(CodecTest, IdsAreRangeChecked) {
  for (const char* bad : {"-1", "4294967296", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    const std::string line = std::string("t\t") + bad;
    LineReader rec(line);
    EXPECT_TRUE(rec.Id().status().IsParseError());
  }
  LineReader max("t\t4294967295");
  ASSERT_OK_AND_ASSIGN(uint32_t id, max.Id());
  EXPECT_EQ(id, 4294967295u);
}

TEST(CodecTest, WordsComeFromTheirClosedSet) {
  LineReader rec("loc\tcompositX\t7");
  const Status bad = rec.Word({"composite", "primitive"}).status();
  EXPECT_TRUE(bad.IsParseError());
  EXPECT_NE(bad.message().find("composite|primitive"), std::string::npos)
      << bad.ToString();
  EXPECT_TRUE(rec.Word({"0", "1"}).status().IsParseError());
}

TEST(CodecTest, FieldsContainingEscapedTabsStaySeparate) {
  std::string line;
  Line(&line, "t").Str("a\tb").Str("c");
  line.pop_back();
  LineReader rec(line);
  EXPECT_EQ(rec.remaining(), 2u);
  ASSERT_OK_AND_ASSIGN(std::string first, rec.Str());
  EXPECT_EQ(first, "a\tb");
  ASSERT_OK_AND_ASSIGN(std::string second, rec.Str());
  EXPECT_EQ(second, "c");
  EXPECT_OK(rec.End());
}

TEST(CodecTest, StrRefusesBadEscapes) {
  LineReader rec("t\tabc\\\ta\\qb");
  EXPECT_TRUE(rec.Str().status().IsParseError());
  EXPECT_TRUE(rec.Str().status().IsParseError());
}

}  // namespace
}  // namespace ltam
