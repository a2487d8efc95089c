#include "util/string_util.h"

#include <gtest/gtest.h>

namespace gc {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(Split, EmptyInput) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0").value(), 0.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("1.5 2.5").has_value());
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("  123  ").value(), 123);
}

TEST(ParseInt, Invalid) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("12a").has_value());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(ToLower, Basics) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_lower("123-X"), "123-x");
}

}  // namespace
}  // namespace gc
