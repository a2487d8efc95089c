#include "util/format.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace gc {
namespace {

TEST(Format, PlainPassthrough) {
  EXPECT_EQ(format("hello"), "hello");
  EXPECT_EQ(format(""), "");
}

TEST(Format, DefaultPlaceholders) {
  EXPECT_EQ(format("{} {}", 1, 2), "1 2");
  EXPECT_EQ(format("x={}", 3.5), "x=3.5");
  EXPECT_EQ(format("{}", std::string("abc")), "abc");
  EXPECT_EQ(format("{}", "literal"), "literal");
  EXPECT_EQ(format("{}", true), "true");
  EXPECT_EQ(format("{}", false), "false");
}

TEST(Format, IntegerTypes) {
  EXPECT_EQ(format("{}", static_cast<std::size_t>(42)), "42");
  EXPECT_EQ(format("{}", -7), "-7");
  EXPECT_EQ(format("{}", 1234567890123456789LL), "1234567890123456789");
  EXPECT_EQ(format("{}", static_cast<unsigned long long>(18446744073709551615ULL)),
            "18446744073709551615");
}

TEST(Format, FloatSpecs) {
  EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(format("{:.0f}", 2.7), "3");
  EXPECT_EQ(format("{:g}", 1000000.0), "1e+06");
  EXPECT_EQ(format("{:.9g}", 0.125), "0.125");
}

TEST(Format, IntegerWithFloatSpecPromotes) {
  EXPECT_EQ(format("{:.1f}", 5), "5.0");
}

TEST(Format, StringAlignment) {
  EXPECT_EQ(format("{:>5}", std::string("ab")), "   ab");
  EXPECT_EQ(format("{:<5}", std::string("ab")), "ab   ");
  EXPECT_EQ(format("{:>2}", std::string("abcd")), "abcd");  // never truncates
}

TEST(Format, EscapedBraces) {
  EXPECT_EQ(format("{{}}"), "{}");
  EXPECT_EQ(format("{{{}}}", 7), "{7}");
}

TEST(Format, TooFewArgumentsThrows) {
  EXPECT_THROW((void)format("{} {}", 1), std::invalid_argument);
}

TEST(Format, TooManyArgumentsThrows) {
  EXPECT_THROW((void)format("{}", 1, 2), std::invalid_argument);
}

TEST(Format, UnterminatedBraceThrows) {
  EXPECT_THROW((void)format("{", 1), std::invalid_argument);
}

TEST(Format, BadSpecThrows) {
  EXPECT_THROW((void)format("{:%%}", 1.0), std::invalid_argument);
}

TEST(Format, NegativeAndSpecialFloats) {
  EXPECT_EQ(format("{:.1f}", -2.25), "-2.2");
  EXPECT_EQ(format("{}", 0.0), "0");
}

// The artifacts' number writer is byte-equal to printf's %.17g and %.15g:
// random bit patterns (every sign, exponent and mantissa), subnormals, the
// signed zeros, infinities and NaNs, the extremes, and integers through
// 2^53.
TEST(AppendG, MatchesPrintfGeneralForm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = {0.0, -0.0, kInf, -kInf, kNan, -kNan, 0.1, 1.0 / 3.0};
  xs.insert(xs.end(), {DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN});
  xs.insert(xs.end(), {1e-5, 1e-4, 1e15, 1e16, 1e17, 123456789.0});
  Rng rng(16);
  for (int i = 0; i < 1'000'000; ++i) xs.push_back(std::bit_cast<double>(rng()));
  for (int i = 0; i < 20'000; ++i) {
    // Subnormals: a zero exponent field under a random sign and mantissa.
    xs.push_back(std::bit_cast<double>(rng() & 0x800f'ffff'ffff'ffffULL));
  }
  for (std::uint64_t n = 0; n <= 100'000; ++n) xs.push_back(static_cast<double>(n));
  for (int i = 0; i < 100'000; ++i) {
    xs.push_back(static_cast<double>(rng.uniform_below(std::uint64_t{1} << 53)));
  }
  for (int k = 0; k <= 53; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (const std::uint64_t n : {p - 1, p, p + 1}) xs.push_back(static_cast<double>(n));
  }
  std::string out;
  char expected[64];
  for (const int precision : {17, 15}) {
    std::size_t mismatches = 0;
    for (const double x : xs) {
      out.clear();
      append_g(out, x, precision);
      std::snprintf(expected, sizeof expected, "%.*g", precision, x);
      if (out != expected && ++mismatches <= 5) {
        ADD_FAILURE() << "precision " << precision << ", bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(x) << ": to_chars '" << out
                      << "' vs printf '" << expected << "'";
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << xs.size() << " at precision " << precision;
  }
}

TEST(AppendG, AppendsToWhatIsThere) {
  std::string out = "t=";
  append_g(out, 0.5);
  out += ", n=";
  append_g(out, 3.0, 15);
  EXPECT_EQ(out, "t=0.5, n=3");
}

TEST(AppendU64, MatchesPrintfUnsigned) {
  for (const unsigned long long v :
       {0ULL, 1ULL, 42ULL, 18446744073709551615ULL /* UINT64_MAX */}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", v);
    std::string out = "x";
    append_u64(out, v);
    EXPECT_EQ(out, std::string("x") + buf);
  }
}

}  // namespace
}  // namespace gc
