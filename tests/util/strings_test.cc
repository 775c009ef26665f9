#include "util/strings.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

namespace icewafl {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringsTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "", "z"};
  EXPECT_EQ(Join(parts, ","), "x,,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, JoinEmptyVector) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("icewafl", "ice"));
  EXPECT_FALSE(StartsWith("ice", "icewafl"));
  EXPECT_TRUE(EndsWith("icewafl", "wafl"));
  EXPECT_FALSE(EndsWith("wafl", "icewafl"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").ValueOrDie(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").ValueOrDie(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  7 ").ValueOrDie(), 7.0);
}

TEST(StringsTest, ParseDoubleRejectsTrailing) {
  EXPECT_FALSE(ParseDouble("3.25abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-9").ValueOrDie(), -9);
  EXPECT_EQ(ParseInt64("1456531200").ValueOrDie(), 1456531200);
  // Inputs from_chars refuses still parse as strtoll does.
  EXPECT_EQ(ParseInt64(" 42 ").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("+7").ValueOrDie(), 7);
  EXPECT_EQ(ParseInt64("007").ValueOrDie(), 7);
  EXPECT_EQ(ParseInt64("-9223372036854775808").ValueOrDie(),
            std::numeric_limits<int64_t>::min());
}

TEST(StringsTest, ParseInt64Rejects) {
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
  EXPECT_FALSE(ParseInt64("--1").ok());
  EXPECT_EQ(ParseInt64("99999999999999999999999").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt64("9223372036854775808").status().code(),
            StatusCode::kOutOfRange);
}

TEST(StringsTest, FormatDoubleShortestRoundTrips) {
  for (double v : {0.1, 1.234, -2.5, 1e-9, 123456.789, 0.0}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v)).ValueOrDie(), v);
  }
}

TEST(StringsTest, FormatDoubleShortestIsMinimal) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(1.234), "1.234");
  // "%.Pg" layout: fixed while -4 <= exponent < P, else d.ddde+XX.
  EXPECT_EQ(FormatDouble(1416748281.7394946), "1416748281.7394946");
  EXPECT_EQ(FormatDouble(1.5e-4), "0.00015");
  EXPECT_EQ(FormatDouble(1e-5), "1e-05");
  EXPECT_EQ(FormatDouble(1e15), "1e+15");
  EXPECT_EQ(FormatDouble(2.5e100), "2.5e+100");
  EXPECT_EQ(FormatDouble(-0.0), "0");
  EXPECT_EQ(FormatDouble(-HUGE_VAL), "-inf");
}

// The oracle, computed the slow way: integral values below 1e15 as
// "%lld", everything else "%.Pg" at the first precision P in 1..17 whose
// text strtod reads back as the same double.
std::string ProbeFormat(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void ExpectSameAsProbe(double v, int* mismatches) {
  const std::string got = FormatDouble(v);
  const std::string want = ProbeFormat(v);
  if (got != want && ++*mismatches <= 10) {
    ADD_FAILURE() << "FormatDouble(" << std::hexfloat << v << ") = " << got
                  << ", probe loop gives " << want;
  }
}

TEST(StringsTest, FormatDoubleMatchesProbeLoopOracle) {
  int mismatches = 0;
  std::mt19937_64 rng(20);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    ExpectSameAsProbe(v, &mismatches);
  }
  std::normal_distribution<double> normal(50.0, 20.0);
  for (int i = 0; i < 20000; ++i) ExpectSameAsProbe(normal(rng), &mismatches);
  // Decades from the subnormals to the top of the range, and their
  // neighbours.
  for (int e = -320; e <= 308; ++e) {
    const double d = std::pow(10.0, e);
    ExpectSameAsProbe(d, &mismatches);
    ExpectSameAsProbe(std::nextafter(d, 0.0), &mismatches);
    ExpectSameAsProbe(-std::nextafter(d, HUGE_VAL), &mismatches);
  }
  // Every power of two: the rounding interval below it is half as wide
  // as above it, the one place the shortest digits can differ from
  // "%.Pg".
  for (int e = -1074; e <= 1023; ++e) {
    ExpectSameAsProbe(std::ldexp(1.0, e), &mismatches);
    ExpectSameAsProbe(-std::ldexp(1.0, e), &mismatches);
  }
  const double kMin = std::numeric_limits<double>::min();
  for (double v : {0.0, -0.0, HUGE_VAL, -HUGE_VAL, std::nan(""),
                   -std::nan(""), 5e-324, kMin, std::nextafter(kMin, 0.0),
                   std::numeric_limits<double>::max(), 1416748281.7394946,
                   1e15, 1e15 + 0.5, 123456789012345678.0, 0.1, 1e-5,
                   1.5e-4}) {
    ExpectSameAsProbe(v, &mismatches);
  }
  EXPECT_EQ(mismatches, 0);
}

// The reference: strtod on a trimmed copy, so the C library decides what
// is accepted and which error it is.
Result<double> StrtodParse(std::string_view text) {
  const std::string buf(Trim(text));
  if (buf.empty()) return Status::ParseError("empty");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return Status::ParseError("trailing");
  if (errno == ERANGE && !std::isfinite(v)) return Status::OutOfRange("range");
  return v;
}

TEST(StringsTest, ParseDoubleMatchesStrtod) {
  struct Row {
    const char* text;
    StatusCode code;
  };
  const Row rows[] = {
      {" 7 ", StatusCode::kOk},         {".5", StatusCode::kOk},
      {"5.", StatusCode::kOk},          {"+1.5", StatusCode::kOk},
      {"0x1p3", StatusCode::kOk},       {"inf", StatusCode::kOk},
      {"-INF", StatusCode::kOk},        {"nan", StatusCode::kOk},
      {"1e400", StatusCode::kOutOfRange}, {"1e-400", StatusCode::kOk},
      {"4.9e-324", StatusCode::kOk},    {"", StatusCode::kParseError},
      {"3.25abc", StatusCode::kParseError}, {"1e", StatusCode::kParseError},
      {"--1", StatusCode::kParseError}, {"-0", StatusCode::kOk},
      {"55.44875734438497", StatusCode::kOk},
  };
  for (const Row& row : rows) {
    const Result<double> got = ParseDouble(row.text);
    const Result<double> want = StrtodParse(row.text);
    EXPECT_EQ(got.status().code(), row.code) << "'" << row.text << "'";
    ASSERT_EQ(got.status().code(), want.status().code())
        << "'" << row.text << "'";
    if (!got.ok()) continue;
    const double g = got.ValueOrDie();
    const double w = want.ValueOrDie();
    if (std::isnan(w)) {
      EXPECT_TRUE(std::isnan(g)) << "'" << row.text << "'";
    } else {
      EXPECT_EQ(std::memcmp(&g, &w, sizeof(g)), 0) << "'" << row.text << "'";
    }
  }
  EXPECT_EQ(ParseDouble("1e-400").ValueOrDie(), 0.0);
  EXPECT_EQ(ParseDouble("0x1p3").ValueOrDie(), 8.0);
}

TEST(StringsTest, FormatDoubleFixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

}  // namespace
}  // namespace icewafl
