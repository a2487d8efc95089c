#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/accumulators.h"

namespace gc {
namespace {

constexpr int kSamples = 200000;

template <typename D>
MeanVarAccumulator sample_stats(const D& dist, std::uint64_t seed = 7) {
  Rng rng(seed);
  MeanVarAccumulator acc;
  for (int i = 0; i < kSamples; ++i) acc.add(dist.sample(rng));
  return acc;
}

TEST(Exponential, MeanAndVariance) {
  const Exponential dist(2.0);
  const auto acc = sample_stats(dist);
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.variance(), 0.25, 0.02);
  EXPECT_DOUBLE_EQ(dist.mean(), 0.5);
}

TEST(Exponential, AlwaysPositive) {
  const Exponential dist(5.0);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(dist.sample(rng), 0.0);
}

TEST(Exponential, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(BoundedPareto, SamplesWithinBounds) {
  const BoundedPareto dist(1.5, 1.0, 100.0);
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(BoundedPareto, EmpiricalMeanMatchesFormula) {
  const BoundedPareto dist(1.5, 1.0, 100.0);
  const auto acc = sample_stats(dist, 99);
  EXPECT_NEAR(acc.mean(), dist.mean(), dist.mean() * 0.03);
}

TEST(BoundedPareto, Alpha1MeanFormula) {
  const BoundedPareto dist(1.0, 1.0, 10.0);
  const auto acc = sample_stats(dist, 55);
  EXPECT_NEAR(acc.mean(), dist.mean(), dist.mean() * 0.03);
}

TEST(BoundedPareto, RejectsBadParameters) {
  EXPECT_THROW(BoundedPareto(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(1.0, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(1.0, 2.0, 2.0), std::invalid_argument);
}

TEST(Deterministic, AlwaysSameValue) {
  const Deterministic dist(3.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(dist.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(dist.mean(), 3.5);
}

TEST(Deterministic, RejectsNegative) {
  EXPECT_THROW(Deterministic(-1.0), std::invalid_argument);
}

// Type-erased Distribution: factories carry the right name and moments.
struct FactoryCase {
  const char* label;
  Distribution dist;
  double expected_mean;
};

class DistributionFactoryTest : public ::testing::TestWithParam<int> {};

TEST(DistributionTypeErased, FactoriesSampleWithCorrectMean) {
  const Distribution cases[] = {
      Distribution::exponential(4.0),
      Distribution::deterministic(0.25),
      Distribution::bounded_pareto(1.8, 0.05, 5.0),
  };
  for (const auto& dist : cases) {
    Rng rng(17);
    MeanVarAccumulator acc;
    for (int i = 0; i < kSamples; ++i) acc.add(dist.sample(rng));
    EXPECT_NEAR(acc.mean(), dist.mean(), std::max(dist.mean() * 0.05, 1e-3))
        << dist.name();
    EXPECT_FALSE(dist.name().empty());
  }
}

TEST(DistributionTypeErased, NamesAreDescriptive) {
  EXPECT_NE(Distribution::exponential(2.0).name().find("exp"), std::string::npos);
  EXPECT_NE(Distribution::bounded_pareto(1.5, 1, 10).name().find("bpareto"),
            std::string::npos);
}

TEST(DistributionTypeErased, ScaledMultipliesSamplesAndMean) {
  const Distribution base = Distribution::exponential(2.0);  // mean 0.5
  const Distribution scaled = base.scaled(4.0);
  EXPECT_DOUBLE_EQ(scaled.mean(), 2.0);
  Rng ra(9), rb(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(scaled.sample(ra), 4.0 * base.sample(rb));
  }
  EXPECT_NE(scaled.name().find("4x"), std::string::npos);
}

TEST(DistributionTypeErased, WithMeanHitsTarget) {
  const Distribution dist = Distribution::bounded_pareto(1.6, 0.01, 5.0).with_mean(0.1);
  EXPECT_NEAR(dist.mean(), 0.1, 1e-12);
  Rng rng(3);
  MeanVarAccumulator acc;
  for (int i = 0; i < kSamples; ++i) acc.add(dist.sample(rng));
  EXPECT_NEAR(acc.mean(), 0.1, 0.01);
}

TEST(DistributionTypeErased, ScaledRejectsBadFactor) {
  const Distribution base = Distribution::deterministic(1.0);
  EXPECT_THROW((void)base.scaled(0.0), std::invalid_argument);
  EXPECT_THROW((void)base.scaled(-2.0), std::invalid_argument);
  EXPECT_THROW((void)base.with_mean(0.0), std::invalid_argument);
}

TEST(DistributionTypeErased, CopyableAndShared) {
  const Distribution a = Distribution::deterministic(1.0);
  const Distribution b = a;  // shares the immutable impl
  Rng rng(1);
  EXPECT_DOUBLE_EQ(b.sample(rng), 1.0);
}

}  // namespace
}  // namespace gc
