#include "control/estimator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace gc {
namespace {

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(EwmaEstimator(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaEstimator(1.5), std::invalid_argument);
}

TEST(Ewma, FirstObservationPrimes) {
  EwmaEstimator est(0.2);
  EXPECT_FALSE(est.primed());
  est.observe(10.0);
  EXPECT_TRUE(est.primed());
  EXPECT_DOUBLE_EQ(est.value(), 10.0);
}

TEST(Ewma, SmoothsTowardsNewValues) {
  EwmaEstimator est(0.5);
  est.observe(0.0);
  est.observe(10.0);
  EXPECT_DOUBLE_EQ(est.value(), 5.0);
  est.observe(10.0);
  EXPECT_DOUBLE_EQ(est.value(), 7.5);
}

TEST(Ewma, AlphaOneTracksExactly) {
  EwmaEstimator est(1.0);
  est.observe(3.0);
  est.observe(9.0);
  EXPECT_DOUBLE_EQ(est.value(), 9.0);
}

TEST(Ewma, ConvergesToConstant) {
  EwmaEstimator est(0.3);
  est.observe(0.0);
  for (int i = 0; i < 100; ++i) est.observe(42.0);
  EXPECT_NEAR(est.value(), 42.0, 1e-9);
}

TEST(StalenessGuard, RejectsBadParameters) {
  EXPECT_THROW(StalenessGuard(-1.0), std::invalid_argument);
  EXPECT_THROW(StalenessGuard(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(StalenessGuard(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(StalenessGuard(0.0));
  EXPECT_NO_THROW(StalenessGuard(60.0));
}

TEST(StalenessGuard, DisabledGuardIsTheIdentity) {
  StalenessGuard guard(0.0);
  EXPECT_DOUBLE_EQ(guard.filter(1e9, 42.0), 42.0);
  EXPECT_FALSE(guard.stale());
  EXPECT_DOUBLE_EQ(guard.margin_multiplier(), 1.0);
  EXPECT_EQ(guard.stale_ticks(), 0u);
}

TEST(StalenessGuard, FreshObservationsPassThroughAndRecord) {
  StalenessGuard guard(60.0);
  EXPECT_DOUBLE_EQ(guard.filter(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(guard.filter(59.9, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(guard.filter(60.0, 30.0), 30.0);  // boundary: age == horizon
  EXPECT_FALSE(guard.stale());
  EXPECT_DOUBLE_EQ(guard.margin_multiplier(), 1.0);
}

TEST(StalenessGuard, StaleObservationHoldsLastGoodAndWidens) {
  StalenessGuard guard(60.0);
  EXPECT_DOUBLE_EQ(guard.filter(10.0, 25.0), 25.0);
  // Past the horizon: the delivered rate is ignored, last-good holds.
  EXPECT_DOUBLE_EQ(guard.filter(61.0, 999.0), 25.0);
  EXPECT_TRUE(guard.stale());
  EXPECT_DOUBLE_EQ(guard.margin_multiplier(), 1.25);  // StalenessGuard::kMarginWiden
  EXPECT_EQ(guard.stale_ticks(), 1u);
  EXPECT_DOUBLE_EQ(guard.filter(120.0, 999.0), 25.0);
  EXPECT_EQ(guard.stale_ticks(), 2u);
}

TEST(StalenessGuard, RecoversWhenTelemetryFreshens) {
  StalenessGuard guard(30.0);
  EXPECT_DOUBLE_EQ(guard.filter(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(guard.filter(100.0, 50.0), 10.0);
  EXPECT_TRUE(guard.stale());
  // A fresh delivery clears the stale state and replaces last-good.
  EXPECT_DOUBLE_EQ(guard.filter(5.0, 50.0), 50.0);
  EXPECT_FALSE(guard.stale());
  EXPECT_DOUBLE_EQ(guard.margin_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(guard.filter(200.0, 77.0), 50.0);
  EXPECT_EQ(guard.stale_ticks(), 2u);  // cumulative over the guard's life
}

TEST(StalenessGuard, StaleBeforeAnyFreshObservationHoldsZero) {
  // If the very first delivery is already stale there is no last-good yet;
  // holding 0 (rather than trusting the dead sample) is the conservative
  // documented behavior — the margin widening carries the hedge.
  StalenessGuard guard(30.0);
  EXPECT_DOUBLE_EQ(guard.filter(100.0, 40.0), 0.0);
  EXPECT_TRUE(guard.stale());
}

}  // namespace
}  // namespace gc
