#include "core/dcp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace gc {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  config.transition.boot_delay_s = 60.0;
  return config;
}

TEST(DcpParams, ValidationRules) {
  DcpParams params;
  EXPECT_NO_THROW(params.validate());
  params.long_period_s = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.short_period_s = params.long_period_s + 1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.safety_margin = 0.9;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.scale_down_patience = 0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(DcpPlanner, HorizonIncludesBootDelay) {
  const Provisioner solver(small_config());
  DcpParams params;
  params.long_period_s = 300.0;
  const DcpPlanner planner(&solver, params);
  EXPECT_DOUBLE_EQ(planner.prediction_horizon(), 360.0);
}

TEST(DcpPlanner, PlanServersAppliesMargin) {
  const Provisioner solver(small_config());
  DcpParams params;
  params.safety_margin = 1.5;
  const DcpPlanner planner(&solver, params);
  // With margin 1.5, planning for 60/s solves for 90/s.
  EXPECT_EQ(planner.plan_point(60.0).servers, solver.solve(90.0).servers);
}

TEST(DcpPlanner, PlanServersTrendsUpWithLoad) {
  // Not strictly monotone: ladder rounding can trade one server against a
  // frequency step.  But the trend must be upward and local dips small.
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  unsigned prev = 0;
  for (double rate = 0.0; rate <= 110.0; rate += 5.0) {
    const unsigned m = planner.plan_point(rate).servers;
    EXPECT_GE(m + 1, prev) << rate;  // dips of at most one server
    prev = std::max(prev, m);
  }
  EXPECT_GT(planner.plan_point(110.0).servers, planner.plan_point(5.0).servers);
}

TEST(DcpPlanner, PlanSpeedTracksLoadForFixedServers) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  const OperatingPoint slow = planner.plan_speed(10.0, 8);
  const OperatingPoint fast = planner.plan_speed(60.0, 8);
  EXPECT_LT(slow.speed, fast.speed);
  EXPECT_TRUE(slow.feasible);
  EXPECT_TRUE(fast.feasible);
}

TEST(DcpPlanner, PlanSpeedClampsServingCount) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  // serving = 0 is clamped to 1; serving above M is clamped to M.
  EXPECT_NO_THROW((void)planner.plan_speed(1.0, 0));
  EXPECT_NO_THROW((void)planner.plan_speed(1.0, 99));
}

TEST(DcpPlanner, RejectsBadInputs) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  EXPECT_DEATH((void)planner.plan_point(-1.0), "bad predicted rate");
  EXPECT_DEATH((void)planner.plan_speed(-1.0, 1), "bad current rate");
}

TEST(HysteresisGate, IncreasesPassImmediately) {
  HysteresisGate gate(3);
  EXPECT_EQ(gate.propose(4, 8), 8u);
  EXPECT_EQ(gate.propose(8, 8), 8u);
}

TEST(HysteresisGate, DecreasesNeedPatience) {
  HysteresisGate gate(3);
  EXPECT_EQ(gate.propose(8, 4), 8u);  // streak 1
  EXPECT_EQ(gate.propose(8, 4), 8u);  // streak 2
  EXPECT_EQ(gate.propose(8, 4), 4u);  // streak 3: allowed
}

TEST(HysteresisGate, IncreaseResetsStreak) {
  HysteresisGate gate(2);
  EXPECT_EQ(gate.propose(8, 4), 8u);
  EXPECT_EQ(gate.propose(8, 9), 9u);  // growth resets
  EXPECT_EQ(gate.propose(9, 4), 9u);  // streak restarts
  EXPECT_EQ(gate.propose(9, 4), 4u);
}

TEST(HysteresisGate, PatienceOneShrinksImmediately) {
  HysteresisGate gate(1);
  EXPECT_EQ(gate.propose(8, 3), 3u);
}

TEST(HysteresisGate, RejectsZeroPatience) {
  EXPECT_THROW(HysteresisGate(0), std::invalid_argument);
}

TEST(DcpPlanner, BacklogAwareSpeedAtOrAboveBaseline) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  const double rate = 40.0;
  const unsigned serving = 8;
  const OperatingPoint base = planner.plan_speed(rate, serving);
  // No backlog: Little's-law target is rate * t_ref; at or below it the
  // planned speed matches the plain short tick.
  const OperatingPoint no_excess =
      planner.plan_speed_with_backlog(rate, serving, rate * 0.5 * 0.5, 5.0);
  EXPECT_DOUBLE_EQ(no_excess.speed, base.speed);
  // Heavy backlog: plan strictly faster.
  const OperatingPoint heavy =
      planner.plan_speed_with_backlog(rate, serving, 200.0, 5.0);
  EXPECT_GT(heavy.speed, base.speed);
}

TEST(DcpPlanner, BacklogDrainBudgetMatchesFormula) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  const double rate = 30.0;
  const double jobs = 100.0;
  const double horizon = 10.0;
  const double on_target = rate * solver.config().t_ref_s;  // 15
  const double effective = rate + (jobs - on_target) / horizon;  // 38.5
  EXPECT_DOUBLE_EQ(planner.plan_speed_with_backlog(rate, 8, jobs, horizon).speed,
                   planner.plan_speed(effective, 8).speed);
}

TEST(DcpPlanner, BacklogAwareRejectsBadInputs) {
  const Provisioner solver(small_config());
  const DcpPlanner planner(&solver, {});
  EXPECT_DEATH((void)planner.plan_speed_with_backlog(1.0, 1, -1.0, 5.0), "negative");
  EXPECT_DEATH((void)planner.plan_speed_with_backlog(1.0, 1, 1.0, 0.0), "horizon");
}

}  // namespace
}  // namespace gc
