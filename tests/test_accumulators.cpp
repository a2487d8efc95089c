#include "stats/accumulators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gc {
namespace {

TEST(MeanVar, EmptyIsZero) {
  MeanVarAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(MeanVar, SingleValue) {
  MeanVarAccumulator acc;
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(MeanVar, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0, -3.0};
  MeanVarAccumulator acc;
  double sum = 0.0;
  for (const double x : xs) {
    acc.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(acc.mean(), mean, 1e-12);
  EXPECT_NEAR(acc.variance(), ss / (static_cast<double>(xs.size()) - 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -3.0);
  EXPECT_DOUBLE_EQ(acc.max(), 16.0);
  EXPECT_NEAR(acc.sum(), sum, 1e-12);
}

TEST(MeanVar, NumericallyStableForLargeOffset) {
  MeanVarAccumulator acc;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) acc.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(acc.mean(), offset, 1e-3);
  EXPECT_NEAR(acc.variance(), 1.0 + 1.0 / 999.0, 1e-6);
}

TEST(MeanVar, SemShrinksWithSamples) {
  MeanVarAccumulator small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.sem(), large.sem());
}

TEST(TimeWeighted, PiecewiseConstantIntegral) {
  TimeWeightedAccumulator acc(0.0);
  acc.advance(2.0, 5.0);   // 5 for 2s -> 10
  acc.advance(3.0, 1.0);   // 1 for 1s -> 1
  acc.advance(3.0, 99.0);  // zero-length segment contributes nothing
  acc.advance(5.0, 0.0);   // 0 for 2s
  EXPECT_DOUBLE_EQ(acc.integral(), 11.0);
  EXPECT_DOUBLE_EQ(acc.elapsed(), 5.0);
  EXPECT_DOUBLE_EQ(acc.time_average(), 11.0 / 5.0);
}

TEST(TimeWeighted, NonZeroStart) {
  TimeWeightedAccumulator acc(10.0);
  acc.advance(12.0, 4.0);
  EXPECT_DOUBLE_EQ(acc.integral(), 8.0);
  EXPECT_DOUBLE_EQ(acc.elapsed(), 2.0);
}

TEST(TimeWeighted, EmptyElapsedGivesZeroAverage) {
  TimeWeightedAccumulator acc(1.0);
  EXPECT_DOUBLE_EQ(acc.time_average(), 0.0);
}

TEST(Ratio, Basics) {
  RatioAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.0);
  acc.add(true);
  acc.add(false);
  acc.add(false);
  acc.add(true);
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.5);
  EXPECT_EQ(acc.total(), 4u);
  EXPECT_EQ(acc.hits(), 2u);
}

}  // namespace
}  // namespace gc
