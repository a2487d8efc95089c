// Dynamic validation of the heterogeneous solver: pin its operating point
// in one simulation run per class and check that the measured per-class
// response times and powers match the closed-form predictions.
#include "exp/hetero_sim.h"

#include <gtest/gtest.h>

#include "queueing/mm1.h"

namespace gc {
namespace {

ServerClass make_class(const char* name, unsigned count, double mu, double p_idle,
                       double p_max) {
  ServerClass sc;
  sc.name = name;
  sc.count = count;
  sc.mu_max = mu;
  sc.power.p_idle_watts = p_idle;
  sc.power.p_max_watts = p_max;
  sc.power.utilization_gated = false;
  return sc;
}

HeteroConfig mixed_config() {
  HeteroConfig config;
  config.t_ref_s = 0.5;
  config.classes.push_back(make_class("new", 6, 12.0, 100.0, 200.0));
  config.classes.push_back(make_class("old", 6, 10.0, 180.0, 300.0));
  return config;
}

TEST(HeteroSim, PerClassResponseMatchesPrediction) {
  const HeteroConfig config = mixed_config();
  const HeteroProvisioner solver(config);
  const double lambda = 90.0;  // forces both classes active
  const HeteroOperatingPoint point = solver.solve(lambda);
  ASSERT_TRUE(point.feasible);
  ASSERT_GT(point.allocations[0].servers, 0u);
  ASSERT_GT(point.allocations[1].servers, 0u);

  const HeteroSimResult result =
      run_hetero_validation(config, point, lambda, 20000.0, 500.0, 7);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_GT(result.completed, 500000u);
  for (std::size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(c);
    ASSERT_GT(result.classes[c].completed, 1000u);
    // Random split of Poisson arrivals keeps each server an exact M/M/1,
    // so the measured mean must sit on the analytic prediction.
    EXPECT_NEAR(result.classes[c].mean_response_s,
                result.classes[c].predicted_response_s,
                result.classes[c].predicted_response_s * 0.05);
  }
}

TEST(HeteroSim, ClusterPowerMatchesPrediction) {
  const HeteroConfig config = mixed_config();
  const HeteroProvisioner solver(config);
  const double lambda = 60.0;
  const HeteroOperatingPoint point = solver.solve(lambda);
  ASSERT_TRUE(point.feasible);
  const HeteroSimResult result =
      run_hetero_validation(config, point, lambda, 5000.0, 200.0, 9);
  // Ungated power is utilization-independent: measured mean power should
  // match the solver's prediction almost exactly.
  EXPECT_NEAR(result.mean_power_w, point.power_watts, point.power_watts * 0.02);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(result.classes[c].mean_power_w, result.classes[c].predicted_power_w,
                std::max(result.classes[c].predicted_power_w * 0.03, 2.0))
        << c;
  }
}

TEST(HeteroSim, SingleActiveClassStillValidates) {
  const HeteroConfig config = mixed_config();
  const HeteroProvisioner solver(config);
  const double lambda = 20.0;  // efficient class only
  const HeteroOperatingPoint point = solver.solve(lambda);
  ASSERT_TRUE(point.feasible);
  ASSERT_EQ(point.allocations[1].servers, 0u);
  const HeteroSimResult result =
      run_hetero_validation(config, point, lambda, 5000.0, 200.0, 11);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_EQ(result.classes[1].completed, 0u);
  EXPECT_NEAR(result.classes[0].mean_response_s,
              result.classes[0].predicted_response_s,
              result.classes[0].predicted_response_s * 0.06);
}

TEST(HeteroSim, DeterministicInSeed) {
  const HeteroConfig config = mixed_config();
  const HeteroProvisioner solver(config);
  const HeteroOperatingPoint point = solver.solve(50.0);
  const HeteroSimResult a = run_hetero_validation(config, point, 50.0, 1000.0, 0.0, 3);
  const HeteroSimResult b = run_hetero_validation(config, point, 50.0, 1000.0, 0.0, 3);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
}

TEST(HeteroSim, RejectsInfeasiblePoint) {
  const HeteroConfig config = mixed_config();
  const HeteroProvisioner solver(config);
  const HeteroOperatingPoint bad = solver.solve(1e6);  // best effort, infeasible
  EXPECT_DEATH(
      (void)run_hetero_validation(config, bad, 1e6, 100.0, 0.0, 1), "infeasible");
}

}  // namespace
}  // namespace gc
