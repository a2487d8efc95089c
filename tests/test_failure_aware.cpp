// Unit tests for the failure-aware control pieces: the heartbeat failure
// detector, the boot-retry gate and the FailureAwareDcpController's
// capped/spared provisioning.
#include "control/failure_aware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "control/policies.h"

namespace gc {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

ControlContext context(double now, double rate, unsigned serving,
                       unsigned available) {
  ControlContext ctx;
  ctx.now = now;
  ctx.measured_rate = rate;
  ctx.serving = serving;
  ctx.committed = serving;
  ctx.powered = serving;
  ctx.available = available;
  return ctx;
}

TEST(FailureAwareOptions, DetectionDelayIsIntervalTimesMisses) {
  EXPECT_DOUBLE_EQ(kDetectionDelayS, 10.0);  // 2 missed heartbeats, 5 s apart
  // The controller's detector hides a crash for exactly that long.
  const Provisioner provisioner(small_config());
  FailureAwareDcpController controller(&provisioner, DcpParams{},
                                       PredictorKind::kLastValue);
  const auto detected = [&](double now, unsigned available) {
    return controller.on_short_tick(context(now, 10.0, available, available))
        .explain.detected_available;
  };
  EXPECT_EQ(detected(100.0, 16), 16u);
  EXPECT_EQ(detected(101.0, 6), 16u);  // ten servers crash at t = 101
  EXPECT_EQ(detected(109.9, 6), 16u);  // the t = 100 heartbeat still counts
  EXPECT_EQ(detected(110.5, 6), 6u);   // 10 s later the loss is seen
}

TEST(FailureDetector, FailuresSurfaceOnlyAfterTheWindow) {
  FailureDetector detector(10.0, 8);
  EXPECT_EQ(detector.detected(), 8u);
  // A crash at t=1 stays hidden while the pre-crash sample is in-window.
  EXPECT_EQ(detector.observe(1.0, 6), 8u);
  EXPECT_EQ(detector.observe(5.0, 6), 8u);
  // Once every >=8 sample aged past the 10 s window, the loss is seen.
  EXPECT_EQ(detector.observe(11.5, 6), 6u);
}

TEST(FailureDetector, RepairsAreSeenInstantly) {
  FailureDetector detector(10.0, 8);
  (void)detector.observe(1.0, 6);
  (void)detector.observe(11.5, 6);
  ASSERT_EQ(detector.detected(), 6u);
  // The repaired server announces itself: no detection lag upward.
  EXPECT_EQ(detector.observe(12.0, 8), 8u);
}

TEST(BootRetryGate, AssertsImmediatelyThenBacksOff) {
  BootRetryGate gate(2, 10.0);
  EXPECT_EQ(gate.propose(0.0, 4, 6), 6u);  // new deficit: assert now
  EXPECT_EQ(gate.attempts(), 1u);
  EXPECT_EQ(gate.propose(5.0, 4, 6), 4u);   // before the retry deadline
  EXPECT_EQ(gate.propose(10.0, 4, 6), 6u);  // first retry at t = backoff
  EXPECT_EQ(gate.attempts(), 2u);
  EXPECT_EQ(gate.propose(15.0, 4, 6), 4u);
  EXPECT_EQ(gate.propose(30.0, 4, 6), 4u);  // budget of 2 spent: degrade
  EXPECT_TRUE(gate.exhausted());
}

TEST(BootRetryGate, ReachingTheTargetResetsTheEpisode) {
  BootRetryGate gate(2, 10.0);
  (void)gate.propose(0.0, 4, 6);
  (void)gate.propose(10.0, 4, 6);
  (void)gate.propose(30.0, 4, 6);
  ASSERT_TRUE(gate.exhausted());
  EXPECT_EQ(gate.propose(40.0, 6, 6), 6u);  // deficit closed
  EXPECT_FALSE(gate.exhausted());
  EXPECT_EQ(gate.attempts(), 0u);
  EXPECT_EQ(gate.propose(50.0, 4, 6), 6u);  // a fresh episode asserts again
}

TEST(BootRetryGate, LoweredTargetAlsoResets) {
  BootRetryGate gate(4, 10.0);
  (void)gate.propose(0.0, 4, 6);
  EXPECT_EQ(gate.propose(1.0, 4, 3), 3u);  // plan shrank below committed
  EXPECT_EQ(gate.attempts(), 0u);
}

TEST(BootRetryGate, BackoffDoublesPerRetry) {
  BootRetryGate gate(4, 10.0);
  EXPECT_EQ(gate.propose(0.0, 2, 5), 5u);   // attempt 1, next at 10
  EXPECT_EQ(gate.propose(10.0, 2, 5), 5u);  // attempt 2, next at 10+20
  EXPECT_EQ(gate.propose(29.0, 2, 5), 2u);
  EXPECT_EQ(gate.propose(30.0, 2, 5), 5u);  // attempt 3, next at 30+40
  EXPECT_EQ(gate.propose(69.0, 2, 5), 2u);
  EXPECT_EQ(gate.propose(70.0, 2, 5), 5u);  // attempt 4 (budget)
  EXPECT_EQ(gate.propose(150.0, 2, 5), 2u);
  EXPECT_TRUE(gate.exhausted());
}

TEST(FailureAwareController, FactoryBuildsIt) {
  const Provisioner provisioner(small_config());
  PolicyOptions options;
  const auto controller =
      make_policy(PolicyKind::kDcpFailureAware, &provisioner, options);
  ASSERT_NE(controller, nullptr);
  EXPECT_STREQ(controller->name(), "dcp-failure-aware");
  EXPECT_STREQ(to_string(PolicyKind::kDcpFailureAware), "dcp-failure-aware");
  EXPECT_GT(controller->short_period_s(), 0.0);
  EXPECT_GE(controller->long_period_s(), controller->short_period_s());
}

TEST(FailureAwareController, CapsTargetAtDetectedFleet) {
  const Provisioner provisioner(small_config());
  DcpParams dcp;
  dcp.scale_down_patience = 1;
  FailureAwareDcpController controller(&provisioner, dcp, PredictorKind::kLastValue);
  // 10 of 16 servers are gone and the observation is past the detection
  // window: the plan must fit inside the surviving 6 even though the load
  // wants far more.
  const ControlAction action =
      controller.on_long_tick(context(100.0, 120.0, 6, 6));
  ASSERT_TRUE(action.active_target.has_value());
  EXPECT_EQ(*action.active_target, 6u);
  EXPECT_TRUE(action.infeasible);
}

TEST(FailureAwareController, AddsSpareCapacityOnTopOfThePlan) {
  const Provisioner provisioner(small_config());
  DcpParams dcp;
  dcp.scale_down_patience = 1;
  FailureAwareDcpController controller(&provisioner, dcp, PredictorKind::kLastValue);
  // committed = 1 so the proposal is pure growth (no hysteresis hold).
  const ControlAction action = controller.on_long_tick(context(100.0, 46.0, 1, 16));
  ASSERT_TRUE(action.active_target.has_value());
  // The base is planned at the *relieved* margin (margin / (1 + 0.0625),
  // clamped at 1), then ceil(0.0625 * m) spares go on top.
  const double relieved = std::max(1.0, dcp.safety_margin / 1.0625);
  const unsigned base = provisioner.solve(46.0 * relieved).servers;
  EXPECT_EQ(action.explain.planned_servers, base);
  const unsigned expected = std::min(
      base + static_cast<unsigned>(std::ceil(0.0625 * static_cast<double>(base))), 16u);
  EXPECT_EQ(*action.active_target, expected);
  EXPECT_GT(*action.active_target, base);
}

TEST(FailureAwareController, BootRetriesBackOffByOneLongPeriodPerDoubling) {
  const Provisioner provisioner(small_config());
  DcpParams dcp;  // T_L = 300 s
  FailureAwareDcpController controller(&provisioner, dcp, PredictorKind::kLastValue);
  // Two servers are committed and stay there (every boot hangs) while the
  // plan wants more: the target is re-asserted one long period after the
  // first shortfall, then 2 and 4 long periods later, 4 attempts in all.
  const auto target_at = [&](double now) {
    return *controller.on_long_tick(context(now, 46.0, 2, 16)).active_target;
  };
  const unsigned wanted = target_at(0.0);  // a new shortfall: asserted at once
  ASSERT_GT(wanted, 2u);
  EXPECT_EQ(target_at(299.0), 2u);
  EXPECT_EQ(target_at(300.0), wanted);  // retry 1, next after 2 T_L
  EXPECT_EQ(target_at(899.0), 2u);
  EXPECT_EQ(target_at(900.0), wanted);  // retry 2, next after 4 T_L
  EXPECT_EQ(target_at(2099.0), 2u);
  EXPECT_EQ(target_at(2100.0), wanted);  // the 4th attempt spends the budget
  EXPECT_EQ(target_at(4500.0), 2u);      // settles for the committed fleet
  EXPECT_EQ(target_at(9000.0), 2u);
}

TEST(FailureAwareController, ShortTickFlagsInfeasibleLoad) {
  const Provisioner provisioner(small_config());
  DcpParams dcp;
  FailureAwareDcpController controller(&provisioner, dcp, PredictorKind::kLastValue);
  const ControlAction calm = controller.on_short_tick(context(1.0, 10.0, 16, 16));
  ASSERT_TRUE(calm.speed.has_value());
  EXPECT_FALSE(calm.infeasible);
  const ControlAction slammed =
      controller.on_short_tick(context(2.0, 1000.0, 16, 16));
  ASSERT_TRUE(slammed.speed.has_value());
  EXPECT_TRUE(slammed.infeasible);
}

}  // namespace
}  // namespace gc
