#include "stats/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace gc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 0);
  Rng b(123, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1, 0);
  Rng b(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(7, 0);
  Rng b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01OpenLeftNeverZero) {
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_GT(rng.uniform01_open_left(), 0.0);
    EXPECT_LE(rng.uniform01_open_left(), 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  Rng rng(2024);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    sum += u;
    sumsq += u * u;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowZeroBoundReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_below(0), 0u);
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ChiSquareUniformityOf16Bins) {
  Rng rng(31337);
  constexpr int kBins = 16;
  constexpr int kN = 160000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kN; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform01() * kBins)];
  }
  const double expected = static_cast<double>(kN) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 dof: p=0.999 critical value ~ 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Regression pin: SplitMix64 from seed 0 (reference values).
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), 0xe220a8397b1dcdafULL);
}

}  // namespace
}  // namespace gc
