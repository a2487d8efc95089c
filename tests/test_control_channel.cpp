// Unit tests for the lossy control-plane channel (sim/control_channel):
// option validation, the draw-only-when-needed determinism contract,
// statistical drop/latency behavior, the SlotStore payload parking lot and
// the controller fail-stop option validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/control_channel.h"

namespace gc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ChannelLinkOptions, DefaultIsPerfectAndValid) {
  ChannelLinkOptions link;
  EXPECT_TRUE(link.perfect());
  EXPECT_NO_THROW(link.validate("telemetry"));
}

TEST(ChannelLinkOptions, RejectsDropProbOutOfRange) {
  ChannelLinkOptions link;
  link.drop_prob = -0.1;
  EXPECT_THROW(link.validate("telemetry"), std::invalid_argument);
  // 1.0 severs the link entirely — a broken config, not a degraded one.
  link.drop_prob = 1.0;
  EXPECT_THROW(link.validate("telemetry"), std::invalid_argument);
  link.drop_prob = kNaN;
  EXPECT_THROW(link.validate("telemetry"), std::invalid_argument);
  // Boundary: 0 is fine, and values arbitrarily close to 1 are accepted.
  link.drop_prob = 0.0;
  EXPECT_NO_THROW(link.validate("telemetry"));
  link.drop_prob = 0.999999;
  EXPECT_NO_THROW(link.validate("telemetry"));
}

TEST(ChannelLinkOptions, RejectsBadLatencies) {
  ChannelLinkOptions link;
  link.latency_base_s = -1.0;
  EXPECT_THROW(link.validate("command"), std::invalid_argument);
  link.latency_base_s = kInf;
  EXPECT_THROW(link.validate("command"), std::invalid_argument);
  link.latency_base_s = 0.0;
  link.latency_jitter_s = kNaN;
  EXPECT_THROW(link.validate("command"), std::invalid_argument);
  link.latency_jitter_s = -0.5;
  EXPECT_THROW(link.validate("command"), std::invalid_argument);
}

TEST(ChannelLinkOptions, ErrorMessageNamesTheLink) {
  ChannelLinkOptions link;
  link.drop_prob = 2.0;
  try {
    link.validate("ack");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ack"), std::string::npos);
  }
}

TEST(ControlChannelOptions, ValidateCascadesToEveryLink) {
  ControlChannelOptions opts;
  EXPECT_NO_THROW(opts.validate());
  opts.ack.drop_prob = 1.5;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ControlChannel, PerfectChannelDeliversInstantlyRegardlessOfSeed) {
  // Zero-loss/zero-latency links make no RNG draws, so the seed cannot
  // matter: every sample is a synchronous (delay 0) delivery.
  ControlChannelOptions opts;
  opts.enabled = true;
  ControlChannel a(opts, /*derived_seed=*/1);
  ControlChannel b(opts, /*derived_seed=*/999);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.telemetry_delay(), std::optional<double>(0.0));
    EXPECT_EQ(b.telemetry_delay(), std::optional<double>(0.0));
    EXPECT_EQ(a.command_delay(), std::optional<double>(0.0));
    EXPECT_EQ(a.ack_delay(), std::optional<double>(0.0));
  }
  EXPECT_EQ(a.telemetry_counters().sent, 100u);
  EXPECT_EQ(a.telemetry_counters().dropped, 0u);
}

TEST(ControlChannel, SameSeedSameHistory) {
  ControlChannelOptions opts;
  opts.enabled = true;
  opts.telemetry = {0.2, 0.1, 0.3};
  opts.command = {0.1, 0.05, 0.2};
  opts.ack = {0.05, 0.0, 0.1};
  ControlChannel a(opts, 42);
  ControlChannel b(opts, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.telemetry_delay(), b.telemetry_delay());
    EXPECT_EQ(a.command_delay(), b.command_delay());
    EXPECT_EQ(a.ack_delay(), b.ack_delay());
  }
}

TEST(ControlChannel, ExplicitSeedOverridesDerivedSeed) {
  ControlChannelOptions opts;
  opts.enabled = true;
  opts.command = {0.5, 0.0, 1.0};
  opts.seed = 7;
  ControlChannel a(opts, /*derived_seed=*/1);
  ControlChannel b(opts, /*derived_seed=*/2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.command_delay(), b.command_delay());
  }
}

TEST(ControlChannel, LinksDrawFromIndependentStreams) {
  // Consuming one link's stream must not shift another's: interleaving
  // telemetry draws between command draws leaves the command history
  // unchanged.
  ControlChannelOptions opts;
  opts.enabled = true;
  opts.telemetry = {0.3, 0.0, 0.5};
  opts.command = {0.3, 0.0, 0.5};
  ControlChannel plain(opts, 42);
  ControlChannel interleaved(opts, 42);
  std::vector<std::optional<double>> expected;
  for (int i = 0; i < 500; ++i) expected.push_back(plain.command_delay());
  for (int i = 0; i < 500; ++i) {
    (void)interleaved.telemetry_delay();
    EXPECT_EQ(interleaved.command_delay(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(ControlChannel, DropRateMatchesConfiguredProbability) {
  ControlChannelOptions opts;
  opts.enabled = true;
  opts.telemetry.drop_prob = 0.25;
  ControlChannel chan(opts, 1234);
  const int n = 20000;
  for (int i = 0; i < n; ++i) (void)chan.telemetry_delay();
  EXPECT_EQ(chan.telemetry_counters().sent, static_cast<std::uint64_t>(n));
  const double rate =
      static_cast<double>(chan.telemetry_counters().dropped) / n;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(ControlChannel, DeliveredDelayStaysInJitterWindow) {
  ControlChannelOptions opts;
  opts.enabled = true;
  opts.command = {0.0, 0.5, 0.25};
  ControlChannel chan(opts, 99);
  double lo = kInf;
  double hi = -kInf;
  for (int i = 0; i < 5000; ++i) {
    const std::optional<double> d = chan.command_delay();
    ASSERT_TRUE(d.has_value());
    lo = std::min(lo, *d);
    hi = std::max(hi, *d);
    EXPECT_GE(*d, 0.5);
    EXPECT_LT(*d, 0.75);
  }
  // The jitter actually spreads across the window (reordering is possible).
  EXPECT_LT(lo, 0.55);
  EXPECT_GT(hi, 0.70);
}

TEST(ControlChannel, ConstructorValidates) {
  ControlChannelOptions opts;
  opts.telemetry.drop_prob = 1.0;
  EXPECT_THROW(ControlChannel(opts, 1), std::invalid_argument);
}

TEST(SlotStore, RoundTripsPayloads) {
  SlotStore<int> store;
  const std::uint32_t a = store.put(10);
  const std::uint32_t b = store.put(20);
  EXPECT_NE(a, b);
  EXPECT_EQ(store.in_flight(), 2u);
  EXPECT_EQ(store.take(b), 20);
  EXPECT_EQ(store.take(a), 10);
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(SlotStore, RecyclesFreedSlots) {
  SlotStore<double> store;
  const std::uint32_t a = store.put(1.0);
  EXPECT_EQ(store.take(a), 1.0);
  // The freed slot is reused before the store grows.
  const std::uint32_t b = store.put(2.0);
  EXPECT_EQ(b, a);
  const std::uint32_t c = store.put(3.0);
  EXPECT_NE(c, b);
  EXPECT_EQ(store.take(b), 2.0);
  EXPECT_EQ(store.take(c), 3.0);
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(SlotStore, SurvivesManyChurnCycles) {
  SlotStore<std::uint64_t> store;
  std::vector<std::uint32_t> live;
  for (std::uint64_t round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      live.push_back(store.put(round * 8 + i));
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint32_t slot = live[live.size() - 8 + i];
      EXPECT_EQ(store.take(slot), round * 8 + i);
    }
    live.resize(live.size() - 8);
  }
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(ControllerFaultOptions, DefaultIsDisabledAndValid) {
  ControllerFaultOptions cf;
  EXPECT_FALSE(cf.enabled());
  EXPECT_NO_THROW(cf.validate());
}

TEST(ControllerFaultOptions, ScriptOrMtbfEnables) {
  ControllerFaultOptions cf;
  cf.script.push_back({100.0, 50.0});
  EXPECT_TRUE(cf.enabled());
  cf.script.clear();
  cf.mtbf_s = 3600.0;
  EXPECT_TRUE(cf.enabled());
}

TEST(ControllerFaultOptions, RejectsBadOutages) {
  ControllerFaultOptions cf;
  cf.script.push_back({-1.0, 10.0});
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.script = {{100.0, 0.0}};
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.script = {{100.0, kInf}};
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.script = {{kNaN, 10.0}};
  EXPECT_THROW(cf.validate(), std::invalid_argument);
}

TEST(ControllerFaultOptions, RejectsBadRandomProcess) {
  ControllerFaultOptions cf;
  cf.mtbf_s = -1.0;
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.mtbf_s = 3600.0;
  cf.mttr_s = 0.0;
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.mttr_s = kInf;
  EXPECT_THROW(cf.validate(), std::invalid_argument);
  cf.mttr_s = 60.0;
  EXPECT_NO_THROW(cf.validate());
  // mttr is irrelevant (and unchecked) when the random process is off.
  cf.mtbf_s = 0.0;
  cf.mttr_s = 0.0;
  EXPECT_NO_THROW(cf.validate());
}

}  // namespace
}  // namespace gc
