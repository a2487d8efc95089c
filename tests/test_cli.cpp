#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gc {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const CliArgs args = parse({"--level=0.7", "--name=x"});
  EXPECT_EQ(args.get("level").value(), "0.7");
  EXPECT_EQ(args.get("name").value(), "x");
}

TEST(Cli, SpaceForm) {
  const CliArgs args = parse({"--servers", "16", "--policy", "combined-dcp"});
  EXPECT_EQ(args.get_or("servers", ""), "16");
  EXPECT_EQ(args.get_or("policy", ""), "combined-dcp");
}

TEST(Cli, BareFlagIsBooleanTrue) {
  const CliArgs args = parse({"--verbose", "--level=1"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose").value(), "");  // present, no value
}

TEST(Cli, Positional) {
  const CliArgs args = parse({"trace.csv", "--bin", "60", "more.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "trace.csv");
  EXPECT_EQ(args.positional()[1], "more.txt");
}

TEST(Cli, TypedGetters) {
  const CliArgs args = parse({"--rate=2.5", "--count", "7"});
  EXPECT_DOUBLE_EQ(args.get_double_or("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_int_or("count", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 9.5), 9.5);
  EXPECT_EQ(args.get_int_or("missing", -1), -1);
}

TEST(Cli, TypedGettersRejectGarbage) {
  const CliArgs args = parse({"--rate=abc", "--count=1.5"});
  EXPECT_THROW((void)args.get_double_or("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int_or("count", 0), std::invalid_argument);
}

TEST(Cli, UnknownFlags) {
  const CliArgs args = parse({"--good=1", "--oops=2"});
  const auto unknown = args.unknown_flags({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
  EXPECT_TRUE(args.unknown_flags({"good", "oops"}).empty());
}

TEST(Cli, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Cli, LastOccurrenceWins) {
  const CliArgs args = parse({"--x=1", "--x=2"});
  EXPECT_EQ(args.get("x").value(), "2");
}

}  // namespace
}  // namespace gc
