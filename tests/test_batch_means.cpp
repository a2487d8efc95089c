#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/student_t.h"
#include "support/batch_means.h"

namespace gc {
namespace {

TEST(TQuantile, TableValues) {
  EXPECT_NEAR(t_quantile(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(t_quantile(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(t_quantile(0.99, 5), 4.032, 1e-3);
  EXPECT_NEAR(t_quantile(0.90, 30), 1.697, 1e-3);
}

TEST(TQuantile, InterpolatesBetweenRows) {
  const double t12 = t_quantile(0.95, 12);
  EXPECT_LT(t12, t_quantile(0.95, 10));
  EXPECT_GT(t12, t_quantile(0.95, 15));
}

TEST(TQuantile, LargeDfApproachesNormal) {
  EXPECT_NEAR(t_quantile(0.95, 10000), 1.96, 0.01);
  EXPECT_NEAR(t_quantile(0.99, 10000), 2.576, 0.01);
  EXPECT_NEAR(t_quantile(0.90, 10000), 1.645, 0.01);
}

TEST(BatchMeans, RejectsBadConstruction) {
  EXPECT_THROW(BatchMeans(0, 10), std::invalid_argument);
  EXPECT_THROW(BatchMeans(10, 1), std::invalid_argument);
}

TEST(BatchMeans, GrandMeanMatches) {
  BatchMeans bm(10, 8);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    bm.add(static_cast<double>(i % 7));
    sum += i % 7;
  }
  EXPECT_NEAR(bm.grand_mean(), sum / 1000.0, 1e-12);
}

TEST(BatchMeans, IntervalInfiniteWithFewBatches) {
  BatchMeans bm(100, 8);
  for (int i = 0; i < 50; ++i) bm.add(1.0);
  EXPECT_TRUE(std::isinf(bm.interval().half_width));
}

TEST(BatchMeans, CoversTrueMeanForIidData) {
  // 95% CI should contain the true mean in the vast majority of seeds.
  int covered = 0;
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    BatchMeans bm(200, 32);
    const Exponential dist(1.0);
    Rng rng(1000 + static_cast<std::uint64_t>(trial));
    for (int i = 0; i < 20000; ++i) bm.add(dist.sample(rng));
    if (bm.interval(0.95).contains(1.0)) ++covered;
  }
  EXPECT_GE(covered, kTrials - 5);
}

TEST(BatchMeans, BatchCollapseKeepsGrandMean) {
  BatchMeans bm(10, 4);  // forces repeated collapses
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = (i * 37 % 11) * 0.5;
    bm.add(x);
    sum += x;
  }
  EXPECT_NEAR(bm.grand_mean(), sum / 10000.0, 1e-9);
  EXPECT_LT(bm.completed_batches(), 4u);
}

TEST(ConfidenceInterval, ContainsAndBounds) {
  const ConfidenceInterval ci{10.0, 2.0};
  EXPECT_DOUBLE_EQ(ci.lower(), 8.0);
  EXPECT_DOUBLE_EQ(ci.upper(), 12.0);
  EXPECT_TRUE(ci.contains(9.0));
  EXPECT_FALSE(ci.contains(12.5));
}

}  // namespace
}  // namespace gc
