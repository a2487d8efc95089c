#include "workload/rate_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "stats/rng.h"

namespace gc {
namespace {

TEST(ConstantRateProfile, Basics) {
  const ConstantRate profile(12.5);
  EXPECT_DOUBLE_EQ(profile.rate(0.0), 12.5);
  EXPECT_DOUBLE_EQ(profile.rate(1e6), 12.5);
  EXPECT_DOUBLE_EQ(profile.max_rate(0.0, 100.0), 12.5);
  EXPECT_DOUBLE_EQ(profile.average_rate(0.0, 100.0), 12.5);
  EXPECT_THROW(ConstantRate(-1.0), std::invalid_argument);
}

TEST(SinusoidalRateProfile, OscillatesAroundBase) {
  const SinusoidalRate profile(100.0, 50.0, 86400.0);
  EXPECT_NEAR(profile.rate(0.0), 100.0, 1e-9);
  EXPECT_NEAR(profile.rate(86400.0 / 4.0), 150.0, 1e-9);
  EXPECT_NEAR(profile.rate(3.0 * 86400.0 / 4.0), 50.0, 1e-9);
  EXPECT_NEAR(profile.average_rate(0.0, 86400.0), 100.0, 0.5);
}

TEST(SinusoidalRateProfile, FloorClipsNegative) {
  const SinusoidalRate profile(10.0, 50.0, 1000.0);
  // Trough would be -40; clipped at the default floor of 0.
  EXPECT_DOUBLE_EQ(profile.rate(750.0), 0.0);
}

TEST(SinusoidalRateProfile, RejectsBadParams) {
  EXPECT_THROW(SinusoidalRate(-1.0, 1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(SinusoidalRate(1.0, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(SinusoidalRate(1.0, 1.0, 0.0), std::invalid_argument);
}

TEST(PiecewiseLinearRateProfile, InterpolatesAndExtrapolatesFlat) {
  const PiecewiseLinearRate profile({{0.0, 10.0}, {10.0, 20.0}, {20.0, 0.0}});
  EXPECT_DOUBLE_EQ(profile.rate(-5.0), 10.0);
  EXPECT_DOUBLE_EQ(profile.rate(0.0), 10.0);
  EXPECT_DOUBLE_EQ(profile.rate(5.0), 15.0);
  EXPECT_DOUBLE_EQ(profile.rate(15.0), 10.0);
  EXPECT_DOUBLE_EQ(profile.rate(25.0), 0.0);
}

TEST(PiecewiseLinearRateProfile, RejectsBadKnots) {
  EXPECT_THROW(PiecewiseLinearRate({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearRate({{0.0, 1.0}, {0.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearRate({{0.0, -1.0}}), std::invalid_argument);
}

// max_rate visits only the knots its binary searches bound; a scan of all
// of them is the reference.  Endpoints fall on knots, between knots and
// outside the knot range, so every boundary of the search is exercised.
TEST(PiecewiseLinearRateProfile, MaxRateMatchesFullKnotScan) {
  Rng rng(41);
  for (int set = 0; set < 200; ++set) {
    const auto n = 1 + static_cast<std::size_t>(rng.uniform01() * 30.0);
    std::vector<PiecewiseLinearRate::Knot> knots;
    double t = -5.0 + 10.0 * rng.uniform01();
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform01() < 0.5 ? 1.0 : 0.25 + 3.0 * rng.uniform01();
      knots.push_back({t, rng.uniform01() < 0.2 ? 0.0 : 100.0 * rng.uniform01()});
    }
    const PiecewiseLinearRate profile(knots);
    std::vector<double> points = {knots.front().time - 7.0, knots.back().time + 7.0};
    for (const auto& k : knots) {
      points.push_back(k.time);
      points.push_back(k.time + 0.5);
      points.push_back(std::nextafter(k.time, -1e9));
    }
    for (const double t0 : points) {
      for (const double t1 : points) {
        if (t1 < t0) continue;
        double scan = std::max(profile.rate(t0), profile.rate(t1));
        for (const auto& k : knots) {
          if (k.time >= t0 && k.time <= t1) scan = std::max(scan, k.rate);
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(profile.max_rate(t0, t1)),
                  std::bit_cast<std::uint64_t>(scan))
            << "set " << set << " [" << t0 << ", " << t1 << "]";
      }
    }
  }
}

TEST(FlashCrowdRateProfile, MultipliesDuringSpike) {
  auto base = std::make_shared<ConstantRate>(10.0);
  const FlashCrowdRate profile(base, {{100.0, 50.0, 3.0}});
  EXPECT_DOUBLE_EQ(profile.rate(99.0), 10.0);
  EXPECT_DOUBLE_EQ(profile.rate(100.0), 30.0);
  EXPECT_DOUBLE_EQ(profile.rate(149.0), 30.0);
  EXPECT_DOUBLE_EQ(profile.rate(150.0), 10.0);
}

TEST(FlashCrowdRateProfile, OverlappingSpikesTakeMax) {
  auto base = std::make_shared<ConstantRate>(10.0);
  const FlashCrowdRate profile(base, {{0.0, 100.0, 2.0}, {50.0, 100.0, 4.0}});
  EXPECT_DOUBLE_EQ(profile.rate(75.0), 40.0);
}

TEST(FlashCrowdRateProfile, RejectsBadSpikes) {
  auto base = std::make_shared<ConstantRate>(1.0);
  EXPECT_THROW(FlashCrowdRate(base, {{0.0, 0.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(FlashCrowdRate(base, {{0.0, 1.0, 0.5}}), std::invalid_argument);
}

TEST(ScaledRateProfile, ScalesEverything) {
  auto base = std::make_shared<ConstantRate>(10.0);
  const ScaledRate profile(base, 2.5);
  EXPECT_DOUBLE_EQ(profile.rate(0.0), 25.0);
  EXPECT_DOUBLE_EQ(profile.max_rate(0.0, 10.0), 25.0);
}

// Majorant property: max_rate(t0,t1) must bound rate(t) for all t in
// [t0,t1] — the NHPP thinning sampler is only correct if this holds.
struct MajorantCase {
  std::shared_ptr<const RateProfile> profile;
  const char* label;
};

class MajorantProperty : public ::testing::TestWithParam<int> {
 public:
  static std::vector<MajorantCase> cases() {
    std::vector<MajorantCase> all;
    all.push_back({std::make_shared<ConstantRate>(5.0), "constant"});
    all.push_back({std::make_shared<SinusoidalRate>(50.0, 30.0, 7200.0, 1234.0), "sine"});
    all.push_back({std::make_shared<PiecewiseLinearRate>(std::vector<PiecewiseLinearRate::Knot>{
                       {0.0, 5.0}, {100.0, 50.0}, {200.0, 10.0}, {400.0, 80.0}}),
                   "piecewise"});
    all.push_back({std::make_shared<FlashCrowdRate>(
                       std::make_shared<SinusoidalRate>(40.0, 20.0, 3600.0),
                       std::vector<FlashCrowdRate::Spike>{{500.0, 600.0, 2.0},
                                                          {2000.0, 300.0, 3.0}}),
                   "flash"});
    all.push_back({make_wc98_like_profile(100.0, 1.0, 7, 7200.0), "wc98"});
    return all;
  }
};

TEST_P(MajorantProperty, MaxRateBoundsPointwiseRate) {
  const auto all = cases();
  const MajorantCase& c = all[static_cast<std::size_t>(GetParam())];
  // Sweep windows of several sizes across [0, 7200].
  for (const double window : {10.0, 137.0, 900.0, 3600.0}) {
    for (double t0 = 0.0; t0 + window <= 7200.0; t0 += window / 2.0) {
      const double bound = c.profile->max_rate(t0, t0 + window);
      for (int k = 0; k <= 20; ++k) {
        const double t = t0 + window * k / 20.0;
        EXPECT_LE(c.profile->rate(t), bound * (1.0 + 1e-9))
            << c.label << " t=" << t << " window=[" << t0 << "," << t0 + window << "]";
      }
    }
  }
}

TEST_P(MajorantProperty, RatesAreNonNegativeAndFinite) {
  const auto all = cases();
  const MajorantCase& c = all[static_cast<std::size_t>(GetParam())];
  for (double t = 0.0; t <= 10000.0; t += 97.0) {
    const double r = c.profile->rate(t);
    EXPECT_GE(r, 0.0) << c.label;
    EXPECT_TRUE(std::isfinite(r)) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, MajorantProperty, ::testing::Range(0, 5));

TEST(Wc98Profile, DeterministicForSeed) {
  const auto a = make_wc98_like_profile(100.0, 2.0, 42);
  const auto b = make_wc98_like_profile(100.0, 2.0, 42);
  for (double t = 0.0; t < 2.0 * 86400.0; t += 3600.0) {
    EXPECT_DOUBLE_EQ(a->rate(t), b->rate(t));
  }
}

TEST(Wc98Profile, DifferentSeedsDiffer) {
  const auto a = make_wc98_like_profile(100.0, 1.0, 1);
  const auto b = make_wc98_like_profile(100.0, 1.0, 2);
  bool differs = false;
  for (double t = 0.0; t < 86400.0; t += 3600.0) {
    if (a->rate(t) != b->rate(t)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Wc98Profile, RampGrowsAcrossDays) {
  const auto profile = make_wc98_like_profile(100.0, 3.0, 9);
  // Compare the same time-of-day on day 0 vs day 2: the ramp should raise it.
  const double d0 = profile->average_rate(0.0, 86400.0);
  const double d2 = profile->average_rate(2.0 * 86400.0, 3.0 * 86400.0);
  EXPECT_GT(d2, d0);
}

TEST(RateProfileNames, AreDescriptive) {
  EXPECT_NE(ConstantRate(1.0).name().find("const"), std::string::npos);
  EXPECT_NE(SinusoidalRate(1, 0.5, 10).name().find("sine"), std::string::npos);
}

}  // namespace
}  // namespace gc
