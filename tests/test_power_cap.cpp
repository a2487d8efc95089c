#include "core/power_cap.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gc {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  config.power.utilization_gated = false;  // the paper's power law
  return config;
}

class PowerCapTest : public ::testing::Test {
 protected:
  PowerCapTest() : solver_(small_config()), cap_solver_(&solver_) {}
  Provisioner solver_;
  PowerCapSolver cap_solver_;
};

TEST_F(PowerCapTest, MaxSupportableRateIsMonotoneInCap) {
  double prev = -1.0;
  for (double cap = 200.0; cap <= 4200.0; cap += 200.0) {
    const double rate = cap_solver_.max_supportable_rate(cap);
    EXPECT_GE(rate, prev) << cap;
    prev = rate;
  }
}

TEST_F(PowerCapTest, MaxSupportableRateSaturatesAtFeasibility) {
  // A cap covering all-on full-speed operation supports the whole feasible
  // range.
  const double full_power = solver_.evaluate(128.0, 16, 1.0).power_watts;
  EXPECT_DOUBLE_EQ(cap_solver_.max_supportable_rate(full_power + 1.0),
                   solver_.config().max_feasible_arrival_rate());
}

TEST_F(PowerCapTest, MaxSupportableRateZeroUnderTinyCap) {
  EXPECT_DOUBLE_EQ(cap_solver_.max_supportable_rate(0.0), 0.0);
  // Even an idle minimal cluster needs >= one server's idle power.
  EXPECT_DOUBLE_EQ(cap_solver_.max_supportable_rate(50.0), 0.0);
}

TEST_F(PowerCapTest, MaxSupportableRateIsTight) {
  const double cap = 2000.0;
  const double rate = cap_solver_.max_supportable_rate(cap);
  ASSERT_GT(rate, 0.0);
  EXPECT_LE(solver_.solve(rate * 0.999).power_watts, cap);
  // Just above the supported rate the optimal power exceeds the cap
  // (modulo the bisection tolerance).
  EXPECT_GT(solver_.solve(std::min(rate * 1.01, 128.0)).power_watts, cap);
}

TEST_F(PowerCapTest, BestPointUnderCapRespectsBothConstraints) {
  // The cheapest SLA-feasible power at 64 jobs/s is 2040 W (m=8, s=1);
  // every cap below that must be reported as "shed load" instead.
  const double lambda = 64.0;
  for (double cap : {4000.0, 3000.0, 2400.0, 2100.0}) {
    const auto pt = cap_solver_.best_point_under_cap(lambda, cap);
    ASSERT_TRUE(pt.has_value()) << cap;
    EXPECT_LE(pt->power_watts, cap + 1e-6);
    EXPECT_TRUE(pt->feasible);
    EXPECT_LE(pt->response_time_s, solver_.config().t_ref_s * (1.0 + 1e-9));
  }
}

TEST_F(PowerCapTest, ResponseDegradesMonotonicallyAsCapTightens) {
  const double lambda = 64.0;
  double prev_t = 0.0;
  for (double cap = 4000.0; cap >= 2100.0; cap -= 300.0) {
    const auto pt = cap_solver_.best_point_under_cap(lambda, cap);
    ASSERT_TRUE(pt.has_value()) << cap;
    EXPECT_GE(pt->response_time_s, prev_t - 1e-9) << cap;
    prev_t = pt->response_time_s;
  }
}

TEST_F(PowerCapTest, LooseCapRecoversUnconstrainedBestResponse) {
  // With an unlimited budget the best response point is everything-on at
  // full speed.
  const double lambda = 64.0;
  const auto pt = cap_solver_.best_point_under_cap(lambda, 1e9);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(pt->servers, 16u);
  EXPECT_DOUBLE_EQ(pt->speed, 1.0);
}

TEST_F(PowerCapTest, ImpossibleCapReturnsNullopt) {
  EXPECT_FALSE(cap_solver_.best_point_under_cap(64.0, 100.0).has_value());
}

TEST_F(PowerCapTest, ContinuousLadderAlsoWorks) {
  ClusterConfig config = small_config();
  config.ladder = FrequencyLadder::continuous(0.1);
  const Provisioner solver(config);
  const PowerCapSolver cap_solver(&solver);
  const auto pt = cap_solver.best_point_under_cap(64.0, 2500.0);
  ASSERT_TRUE(pt.has_value());
  EXPECT_LE(pt->power_watts, 2500.0 + 1e-6);
  EXPECT_TRUE(pt->feasible);
  // Tighter cap -> worse (but still feasible) response.
  const auto loose = cap_solver.best_point_under_cap(64.0, 4000.0);
  ASSERT_TRUE(loose.has_value());
  EXPECT_LE(loose->response_time_s, pt->response_time_s + 1e-9);
}

TEST_F(PowerCapTest, RejectsBadInputs) {
  EXPECT_DEATH((void)cap_solver_.max_supportable_rate(-1.0), "bad power cap");
  EXPECT_DEATH((void)cap_solver_.best_point_under_cap(-1.0, 100.0), "bad lambda");
}

}  // namespace
}  // namespace gc
