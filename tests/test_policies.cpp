#include "control/policies.h"

#include <gtest/gtest.h>

#include "workload/rate_profile.h"

namespace gc {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

ControlContext context(double rate, unsigned serving, unsigned committed = 0) {
  ControlContext ctx;
  ctx.now = 100.0;
  ctx.measured_rate = rate;
  ctx.serving = serving;
  ctx.committed = committed == 0 ? serving : committed;
  ctx.powered = ctx.committed;
  return ctx;
}

class PoliciesTest : public ::testing::Test {
 protected:
  PoliciesTest() : provisioner_(small_config()) {}
  Provisioner provisioner_;
  PolicyOptions options_;
};

TEST_F(PoliciesTest, FactoryBuildsEveryKind) {
  for (const auto kind :
       {PolicyKind::kNpm, PolicyKind::kDvfsOnly, PolicyKind::kVovfOnly,
        PolicyKind::kCombinedDcp, PolicyKind::kCombinedSinglePeriod,
        PolicyKind::kDcpFailureAware}) {
    const auto controller = make_policy(kind, &provisioner_, options_);
    ASSERT_NE(controller, nullptr);
    EXPECT_STREQ(controller->name(), to_string(kind));
    EXPECT_GT(controller->short_period_s(), 0.0);
    EXPECT_GE(controller->long_period_s(), controller->short_period_s());
  }
}

TEST_F(PoliciesTest, NpmPinsEverythingOn) {
  NpmController npm(&provisioner_, options_);
  const ControlAction action = npm.on_long_tick(context(5.0, 4));
  ASSERT_TRUE(action.active_target.has_value());
  EXPECT_EQ(*action.active_target, 16u);
  ASSERT_TRUE(action.speed.has_value());
  EXPECT_DOUBLE_EQ(*action.speed, 1.0);
  const ControlAction short_action = npm.on_short_tick(context(5.0, 16));
  EXPECT_FALSE(short_action.active_target.has_value());
  EXPECT_FALSE(short_action.speed.has_value());
}

TEST_F(PoliciesTest, DvfsOnlyKeepsAllServersAndScalesFrequency) {
  DvfsOnlyController dvfs(&provisioner_, options_);
  const ControlAction low = dvfs.on_short_tick(context(5.0, 16));
  ASSERT_TRUE(low.speed.has_value());
  DvfsOnlyController dvfs2(&provisioner_, options_);
  const ControlAction high = dvfs2.on_short_tick(context(100.0, 16));
  ASSERT_TRUE(high.speed.has_value());
  EXPECT_LT(*low.speed, *high.speed);
  const ControlAction long_action = dvfs.on_long_tick(context(5.0, 16));
  ASSERT_TRUE(long_action.active_target.has_value());
  EXPECT_EQ(*long_action.active_target, 16u);
}

TEST_F(PoliciesTest, VovfOnlyAlwaysFullSpeed) {
  VovfOnlyController vovf(&provisioner_, options_);
  const ControlAction short_action = vovf.on_short_tick(context(50.0, 8));
  ASSERT_TRUE(short_action.speed.has_value());
  EXPECT_DOUBLE_EQ(*short_action.speed, 1.0);
  const ControlAction long_action = vovf.on_long_tick(context(50.0, 8));
  ASSERT_TRUE(long_action.active_target.has_value());
  ASSERT_TRUE(long_action.speed.has_value());
  EXPECT_DOUBLE_EQ(*long_action.speed, 1.0);
}

TEST_F(PoliciesTest, VovfOnlyScalesServersWithLoad) {
  VovfOnlyController vovf(&provisioner_, options_);
  (void)vovf.on_short_tick(context(10.0, 8));
  const ControlAction low = vovf.on_long_tick(context(10.0, 8));
  VovfOnlyController vovf2(&provisioner_, options_);
  (void)vovf2.on_short_tick(context(100.0, 8));
  const ControlAction high = vovf2.on_long_tick(context(100.0, 8));
  EXPECT_LT(*low.active_target, *high.active_target);
}

TEST_F(PoliciesTest, CombinedShortTickFitsSpeedToServingServers) {
  CombinedDcpController combined(&provisioner_, options_);
  const ControlAction few = combined.on_short_tick(context(40.0, 6));
  CombinedDcpController combined2(&provisioner_, options_);
  const ControlAction many = combined2.on_short_tick(context(40.0, 14));
  ASSERT_TRUE(few.speed.has_value());
  ASSERT_TRUE(many.speed.has_value());
  // More servers -> lower per-server load -> lower frequency suffices.
  EXPECT_GE(*few.speed, *many.speed);
}

TEST_F(PoliciesTest, CombinedLongTickScalesServers) {
  CombinedDcpController combined(&provisioner_, options_);
  for (int i = 0; i < 5; ++i) (void)combined.on_short_tick(context(80.0, 10));
  const ControlAction action = combined.on_long_tick(context(80.0, 10));
  ASSERT_TRUE(action.active_target.has_value());
  // 80/s padded by 1.15 needs ~ solve(92).servers.
  EXPECT_EQ(*action.active_target, provisioner_.solve(80.0 * 1.15).servers);
}

TEST_F(PoliciesTest, CombinedAppliesHysteresisOnScaleDown) {
  PolicyOptions options;
  options.dcp.scale_down_patience = 2;
  CombinedDcpController combined(&provisioner_, options);
  // Prime with saturating load so the gate's streak stays reset (the
  // priming proposal is >= the current 16 servers), then drop the load.
  for (int i = 0; i < 5; ++i) (void)combined.on_short_tick(context(130.0, 16));
  (void)combined.on_long_tick(context(130.0, 16));
  // Load drops; sliding-max still remembers the peak, so feed several
  // short ticks to flush the window, then check the gate.
  for (int i = 0; i < 12; ++i) (void)combined.on_short_tick(context(10.0, 16));
  const ControlAction first = combined.on_long_tick(context(10.0, 16));
  EXPECT_EQ(*first.active_target, 16u);  // patience 2: first proposal held
  const ControlAction second = combined.on_long_tick(context(10.0, 16));
  EXPECT_LT(*second.active_target, 16u);
}

TEST_F(PoliciesTest, CombinedSinglePeriodSolvesJointly) {
  CombinedSinglePeriodController single(&provisioner_, options_);
  EXPECT_DOUBLE_EQ(single.short_period_s(), single.long_period_s());
  const ControlAction action = single.on_long_tick(context(40.0, 8));
  ASSERT_TRUE(action.active_target.has_value());
  ASSERT_TRUE(action.speed.has_value());
  const OperatingPoint expected = provisioner_.solve(40.0 * options_.dcp.safety_margin);
  EXPECT_EQ(*action.active_target, expected.servers);
  EXPECT_DOUBLE_EQ(*action.speed, expected.speed);
  EXPECT_FALSE(single.on_short_tick(context(40.0, 8)).speed.has_value());
}

TEST_F(PoliciesTest, PredictorKindIsRespected) {
  PolicyOptions options;
  options.predictor = PredictorKind::kLastValue;
  options.dcp.scale_down_patience = 1;  // isolate the predictor from the gate
  CombinedDcpController combined(&provisioner_, options);
  (void)combined.on_short_tick(context(100.0, 16));  // peak
  (void)combined.on_short_tick(context(10.0, 16));   // now low
  const ControlAction action = combined.on_long_tick(context(10.0, 16));
  // last-value forgets the peak immediately (modulo safety margin).
  EXPECT_LE(*action.active_target, provisioner_.solve(10.0 * 1.15).servers + 1);
}

TEST_F(PoliciesTest, BacklogAwareRaisesSpeedUnderQueueBuildup) {
  PolicyOptions plain = options_;
  PolicyOptions aware = options_;
  aware.backlog_aware = true;
  CombinedDcpController plain_ctrl(&provisioner_, plain);
  CombinedDcpController aware_ctrl(&provisioner_, aware);
  ControlContext ctx = context(40.0, 8);
  ctx.jobs_in_system = 500;  // far above the Little's-law target of 20
  const ControlAction plain_action = plain_ctrl.on_short_tick(ctx);
  const ControlAction aware_action = aware_ctrl.on_short_tick(ctx);
  ASSERT_TRUE(plain_action.speed.has_value());
  ASSERT_TRUE(aware_action.speed.has_value());
  EXPECT_GT(*aware_action.speed, *plain_action.speed);
  // Without backlog, both agree.
  ControlContext calm = context(40.0, 8);
  calm.jobs_in_system = 5;
  CombinedDcpController plain2(&provisioner_, plain);
  CombinedDcpController aware2(&provisioner_, aware);
  EXPECT_DOUBLE_EQ(*plain2.on_short_tick(calm).speed, *aware2.on_short_tick(calm).speed);
}

TEST_F(PoliciesTest, InfeasibleLoadIsFlagged) {
  // 16 servers serve at most 16 * (mu - 1/t_ref) = 128/s; 2000/s cannot be
  // planned for, and every solver-driven policy must say so.
  const ControlContext overload = context(2000.0, 16);
  CombinedDcpController combined(&provisioner_, options_);
  EXPECT_TRUE(combined.on_short_tick(overload).infeasible);
  EXPECT_TRUE(combined.on_long_tick(overload).infeasible);
  DvfsOnlyController dvfs(&provisioner_, options_);
  EXPECT_TRUE(dvfs.on_short_tick(overload).infeasible);
  VovfOnlyController vovf(&provisioner_, options_);
  (void)vovf.on_short_tick(overload);
  EXPECT_TRUE(vovf.on_long_tick(overload).infeasible);
  CombinedSinglePeriodController single(&provisioner_, options_);
  EXPECT_TRUE(single.on_long_tick(overload).infeasible);
  // NPM does not solve anything and never reports infeasibility.
  NpmController npm(&provisioner_, options_);
  EXPECT_FALSE(npm.on_long_tick(overload).infeasible);
}

TEST_F(PoliciesTest, FeasibleLoadIsNotFlagged) {
  const ControlContext calm = context(10.0, 16);
  CombinedDcpController combined(&provisioner_, options_);
  EXPECT_FALSE(combined.on_short_tick(calm).infeasible);
  EXPECT_FALSE(combined.on_long_tick(calm).infeasible);
  DvfsOnlyController dvfs(&provisioner_, options_);
  EXPECT_FALSE(dvfs.on_short_tick(calm).infeasible);
}

TEST_F(PoliciesTest, PolicyKindNames) {
  EXPECT_STREQ(to_string(PolicyKind::kNpm), "npm");
  EXPECT_STREQ(to_string(PolicyKind::kCombinedDcp), "combined-dcp");
  EXPECT_STREQ(to_string(PolicyKind::kOracle), "oracle");
}

TEST_F(PoliciesTest, ThresholdScalesOutUnderHighUtilization) {
  ThresholdController threshold(&provisioner_, options_);
  // 8 serving servers at mu 10: util = 70/80 = 0.875 > 0.8 -> +1.
  (void)threshold.on_short_tick(context(70.0, 8));
  const ControlAction action = threshold.on_long_tick(context(70.0, 8));
  ASSERT_TRUE(action.active_target.has_value());
  EXPECT_EQ(*action.active_target, 9u);
  ASSERT_TRUE(action.speed.has_value());
  EXPECT_DOUBLE_EQ(*action.speed, 1.0);
}

TEST_F(PoliciesTest, ThresholdScalesInUnderLowUtilization) {
  ThresholdController threshold(&provisioner_, options_);
  // util = 10/80 = 0.125 < 0.3 -> -1.
  (void)threshold.on_short_tick(context(10.0, 8));
  const ControlAction action = threshold.on_long_tick(context(10.0, 8));
  ASSERT_TRUE(action.active_target.has_value());
  EXPECT_EQ(*action.active_target, 7u);
}

TEST_F(PoliciesTest, ThresholdHoldsInTheDeadBand) {
  ThresholdController threshold(&provisioner_, options_);
  // util = 40/80 = 0.5: between the thresholds -> no change.
  (void)threshold.on_short_tick(context(40.0, 8));
  const ControlAction action = threshold.on_long_tick(context(40.0, 8));
  EXPECT_FALSE(action.active_target.has_value());
}

TEST_F(PoliciesTest, ThresholdRespectsClusterBounds) {
  ThresholdController threshold(&provisioner_, options_);
  (void)threshold.on_short_tick(context(155.0, 16));
  const ControlAction high = threshold.on_long_tick(context(155.0, 16));
  ASSERT_TRUE(high.active_target.has_value());
  EXPECT_EQ(*high.active_target, 16u);  // clamped at M
  ThresholdController threshold2(&provisioner_, options_);
  ControlContext low_ctx = context(0.1, 1);
  (void)threshold2.on_short_tick(low_ctx);
  const ControlAction low = threshold2.on_long_tick(low_ctx);
  EXPECT_FALSE(low.active_target.has_value());  // never below 1
}

TEST_F(PoliciesTest, ThresholdRejectsBadThresholds) {
  EXPECT_THROW(ThresholdController(&provisioner_, options_, 0.3, 0.8),
               std::invalid_argument);
  EXPECT_THROW(ThresholdController(&provisioner_, options_, 1.5, 0.3),
               std::invalid_argument);
}

TEST_F(PoliciesTest, ThresholdBuildableViaFactory) {
  const auto controller = make_policy(PolicyKind::kThreshold, &provisioner_, options_);
  EXPECT_STREQ(controller->name(), "threshold");
}

TEST_F(PoliciesTest, OracleNeedsProfileInFactory) {
  EXPECT_THROW((void)make_policy(PolicyKind::kOracle, &provisioner_, options_),
               std::invalid_argument);
}

TEST_F(PoliciesTest, OracleProvisionsForTheTrueFuturePeak) {
  // Profile: flat 10/s with a step to 80/s at t = 150.  At t = 100 the
  // oracle's horizon (long period + boot delay) covers the step, so it
  // provisions for 80/s * margin even though the measured rate is 10/s.
  auto profile = std::make_shared<PiecewiseLinearRate>(
      std::vector<PiecewiseLinearRate::Knot>{
          {0.0, 10.0}, {149.9, 10.0}, {150.0, 80.0}, {1000.0, 80.0}});
  PolicyOptions options;
  options.dcp.long_period_s = 60.0;
  options.dcp.short_period_s = 10.0;
  const auto oracle = make_oracle_policy(&provisioner_, options, profile);
  ControlContext ctx = context(10.0, 4);
  ctx.now = 100.0;
  const ControlAction action = oracle->on_long_tick(ctx);
  ASSERT_TRUE(action.active_target.has_value());
  EXPECT_EQ(*action.active_target,
            provisioner_.solve(80.0 * options.dcp.safety_margin).servers);
  // A causal last-value controller at the same instant would plan for 10/s.
  EXPECT_GT(*action.active_target,
            provisioner_.solve(10.0 * options.dcp.safety_margin).servers);
}

TEST_F(PoliciesTest, OracleShortTickUsesTrueRate) {
  auto profile = std::make_shared<ConstantRate>(60.0);
  const auto oracle = make_oracle_policy(&provisioner_, options_, profile);
  // Measured rate lies (says 5/s); the oracle plans for the true 60/s.
  ControlContext ctx = context(5.0, 16);
  const ControlAction action = oracle->on_short_tick(ctx);
  ASSERT_TRUE(action.speed.has_value());
  const double expected =
      provisioner_.best_speed_for(60.0 * options_.dcp.safety_margin, 16).speed;
  EXPECT_DOUBLE_EQ(*action.speed, expected);
}

}  // namespace
}  // namespace gc
