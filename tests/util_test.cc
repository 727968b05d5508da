#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "query/printer.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace scalein {
namespace {

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "ok");

  Status bad = Status::InvalidArgument("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "invalid-argument: broken");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "resource-exhausted");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  SI_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Doubler(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Doubler(Status::Internal("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(StringsTest, JoinSplitStrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, StrFormatAndHash) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
  uint64_t h1 = Fnv1a64("abc", 3);
  uint64_t h2 = Fnv1a64("abc", 3);
  uint64_t h3 = Fnv1a64("abd", 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// One checked parser for every integer that arrives from outside: the whole
// text must be digits (with a '-' only for a signed type), and a value the
// type cannot hold is an error instead of a wrap.
TEST(StringsTest, ParseIntegerIsChecked) {
  EXPECT_EQ(*ParseInteger<int64_t>("42"), 42);
  EXPECT_EQ(*ParseInteger<int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(*ParseInteger<int64_t>("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInteger<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(*ParseInteger<uint64_t>("007"), 7u);
  for (const char* bad : {"9223372036854775808", "-9223372036854775809",
                          "99999999999999999999", "", "-", "+1", " 1", "1 ",
                          "12x", "0x10"}) {
    Result<int64_t> v = ParseInteger<int64_t>(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  for (const char* bad : {"18446744073709551616", "18446744073709551617",
                          "-1", "-0", "", "1.5"}) {
    Result<uint64_t> v = ParseInteger<uint64_t>(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(ParseInteger<uint64_t>("abc").status().message(),
            "expected a number, got 'abc'");
}

TEST(StringsTest, ParseDoubleIsChecked) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2"), 2.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.25"), -0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  for (const char* bad : {"", "x1", "1x", "1e999", "inf", "nan", " 1"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << "'" << bad << "'";
  }
}

TEST(PrinterTest, TableAlignment) {
  TablePrinter table({"name", "count"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "1000"});
  std::string out = table.Render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(12), "12");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace scalein
