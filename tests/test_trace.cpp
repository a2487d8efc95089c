#include "workload/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "exp/scenario.h"

namespace gc {
namespace {

TEST(Trace, RejectsUnsortedOrNegative) {
  EXPECT_THROW(Trace({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Trace({-0.5, 1.0}), std::invalid_argument);
}

TEST(Trace, RejectsNonFiniteTimestamps) {
  // NaN slips past ordering comparisons, so it needs its own check.
  EXPECT_THROW(Trace({0.0, std::nan(""), 2.0}), std::invalid_argument);
  EXPECT_THROW(Trace({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  try {
    Trace({0.0, 1.0, std::nan("")});
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("#2"), std::string::npos);
  }
}

TEST(Trace, LoadCsvRejectsNaN) {
  const auto path = std::filesystem::temp_directory_path() / "gc_trace_nan.csv";
  {
    std::ofstream out(path);
    out << "arrival_s\n1.0\nnan\n3.0\n";
  }
  try {
    (void)Trace::load_csv(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("arrival_s"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Trace, LoadCsvRejectsNegativeArrivals) {
  const auto path = std::filesystem::temp_directory_path() / "gc_trace_neg.csv";
  {
    std::ofstream out(path);
    out << "arrival_s\n1.0\n-2.5\n";
  }
  EXPECT_THROW((void)Trace::load_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Trace, MeanRate) {
  const Trace trace({0.0, 1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(trace.duration(), 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_rate(), 5.0 / 4.0);
}

TEST(Trace, EmptyTrace) {
  const Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.duration(), 0.0);
  EXPECT_DOUBLE_EQ(trace.mean_rate(), 0.0);
}

TEST(Trace, FromProfileApproximatesRate) {
  const ConstantRate profile(25.0);
  const Trace trace = Trace::from_profile(profile, 4000.0, 33);
  EXPECT_NEAR(trace.mean_rate(), 25.0, 1.0);
}

TEST(Trace, FromProfileDeterministicInSeed) {
  const ConstantRate profile(5.0);
  const Trace a = Trace::from_profile(profile, 100.0, 1);
  const Trace b = Trace::from_profile(profile, 100.0, 1);
  EXPECT_EQ(a.timestamps(), b.timestamps());
  const Trace c = Trace::from_profile(profile, 100.0, 2);
  EXPECT_NE(a.timestamps(), c.timestamps());
}

// fig8's day: three compressed WC98-like days (piecewise-linear knots plus
// flash crowds) at 70% of the feasible peak, thinned with seed 13.  The
// count and the FNV-1a hash of the timestamps' bytes pin the whole
// synthesis path bit for bit.
TEST(Trace, Fig8DayIsPinned) {
  const double day_s = 2400.0;
  const auto profile = make_wc98_like_profile(
      0.7 * bench_cluster_config().max_feasible_arrival_rate(), 3.0, 13, day_s);
  const Trace trace = Trace::from_profile(*profile, 3.0 * day_s, 13);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double t : trace.timestamps()) {
    const auto bits = std::bit_cast<std::uint64_t>(t);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(trace.size(), 287310u);
  EXPECT_EQ(hash, 0xc9419bfc9661da80ULL);
}

TEST(Trace, CsvRoundTrip) {
  const Trace trace({0.25, 1.5, 2.75});
  const auto path = std::filesystem::temp_directory_path() / "gc_trace_test.csv";
  trace.save_csv(path);
  const Trace loaded = Trace::load_csv(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_NEAR(loaded.timestamps()[1], 1.5, 1e-9);
  std::filesystem::remove(path);
}

TEST(Trace, LoadCsvRequiresColumn) {
  const auto path = std::filesystem::temp_directory_path() / "gc_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "wrong_column\n1.0\n";
  }
  EXPECT_THROW(Trace::load_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Trace, ToRateProfileRecoversConstantRate) {
  const ConstantRate profile(40.0);
  const Trace trace = Trace::from_profile(profile, 2000.0, 11);
  const auto empirical = trace.to_rate_profile(100.0);
  // Mid-trace the empirical rate should track 40/s.
  EXPECT_NEAR(empirical->rate(1000.0), 40.0, 4.0);
}

TEST(Trace, ToRateProfileTracksShape) {
  const SinusoidalRate profile(50.0, 40.0, 2000.0);
  const Trace trace = Trace::from_profile(profile, 2000.0, 13);
  const auto empirical = trace.to_rate_profile(100.0);
  // Peak (t=500) should be clearly above trough (t=1500).
  EXPECT_GT(empirical->rate(500.0), empirical->rate(1500.0) + 20.0);
}

TEST(Trace, ToRateProfileValidatesBin) {
  const Trace trace({1.0});
  EXPECT_DEATH((void)trace.to_rate_profile(0.0), "bin");
}

TEST(Trace, SingleArrivalProfileIsFlat) {
  const Trace trace({5.0});
  const auto profile = trace.to_rate_profile(10.0);
  EXPECT_GE(profile->rate(0.0), 0.0);
}

}  // namespace
}  // namespace gc
