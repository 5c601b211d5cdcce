// Copyright 2026 The LTAM Authors.

#include "util/string_util.h"

#include <gtest/gtest.h>

namespace ltam {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("one", ','), (std::vector<std::string>{"one"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitAndTrimTest, DropsEmptyAndTrims) {
  EXPECT_EQ(SplitAndTrim("  a , , b  ", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitAndTrim("  ,  ,  ", ',').empty());
}

TEST(JoinTest, Joins) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(PrefixSuffixTest, Works) {
  EXPECT_TRUE(StartsWith("SCE.GO", "SCE"));
  EXPECT_FALSE(StartsWith("SCE", "SCE.GO"));
  EXPECT_TRUE(EndsWith("SCE.GO", ".GO"));
  EXPECT_FALSE(EndsWith("GO", "SCE.GO"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(CaseTest, LowerUpperAndCompare) {
  EXPECT_EQ(ToLower("WhEnEvEr"), "whenever");
  EXPECT_EQ(ToUpper("whenever"), "WHENEVER");
  EXPECT_TRUE(EqualsIgnoreCase("WHENEVER", "whenever"));
  EXPECT_FALSE(EqualsIgnoreCase("WHENEVER", "WHENEVERNOT"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(ParseInt64Test, ParsesAndRejects) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("  -7 "), -7);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_TRUE(ParseInt64("").status().IsParseError());
  EXPECT_TRUE(ParseInt64("12x").status().IsParseError());
  EXPECT_TRUE(ParseInt64("x").status().IsParseError());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsParseError());
}

TEST(ParseInt64InRangeTest, AcceptsOnlyWholeNumbersInRange) {
  EXPECT_EQ(*ParseInt64InRange("1", 1, 256), 1);
  EXPECT_EQ(*ParseInt64InRange("256", 1, 256), 256);
  EXPECT_TRUE(ParseInt64InRange("0", 1, 256).status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64InRange("257", 1, 256).status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64InRange("2x", 1, 256).status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64InRange("abc", 1, 256).status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64InRange("", 1, 256).status().IsInvalidArgument());
  // The refusal names the value and the range.
  EXPECT_EQ("'2x' is not a number in 1..256",
            ParseInt64InRange("2x", 1, 256).status().message());
}

TEST(ParseDoubleTest, ParsesAndRejects) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_TRUE(ParseDouble("").status().IsParseError());
  EXPECT_TRUE(ParseDouble("1.2.3").status().IsParseError());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("s%u at l%u", 3u, 7u), "s3 at l7");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace ltam
