// Parameterized validation sweep: the simulator against M/M/1 theory over
// a (utilization, speed) grid — the property-style counterpart of
// test_simulation_validation.cpp's hand-picked cases.
#include <gtest/gtest.h>

#include "control/policies.h"
#include "queueing/mm1.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace gc {
namespace {

struct SweepCase {
  double rho;    // target utilization at the chosen speed
  double speed;  // normalized server speed
};

class Mm1SweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Mm1SweepTest, MeanResponseOnTheCurve) {
  const auto [rho, speed] = GetParam();
  constexpr double kMuMax = 10.0;
  const double mu_eff = speed * kMuMax;
  const double lambda = rho * mu_eff;
  // Enough jobs that the sample mean is tight even at rho = 0.9.
  const double horizon = 160000.0 / lambda;
  Workload workload = Workload::poisson_exponential(lambda, kMuMax, horizon,
                                                    static_cast<std::uint64_t>(
                                                        rho * 1000 + speed * 100));
  ClusterOptions options;
  options.num_servers = 1;
  options.initial_active = 1;
  PinnedController controller(1, speed);
  SimulationOptions sim;
  sim.t_ref_s = 1e6;  // not under test here
  sim.warmup_s = horizon * 0.05;
  const SimResult result = run_simulation(workload, options, controller, sim);

  const double expected = mm1::mean_response_time(lambda, mu_eff);
  EXPECT_NEAR(result.mean_response_s, expected, expected * 0.08)
      << "rho=" << rho << " speed=" << speed;
  // Busy-time fraction == rho (energy-side cross-check).
  const double busy_fraction =
      result.energy.busy_j /
      (result.energy.busy_j + result.energy.idle_j > 0.0
           ? result.energy.busy_j + result.energy.idle_j
           : 1.0);
  // Busy power at speed s is p(s,1), idle p(s,0): translate fractions via
  // the default gated model (idle 150 W, busy 150+100 s^3 W).
  const double p_busy = 150.0 + 100.0 * speed * speed * speed;
  const double p_idle = 150.0;
  const double expected_fraction =
      rho * p_busy / (rho * p_busy + (1.0 - rho) * p_idle);
  EXPECT_NEAR(busy_fraction, expected_fraction, 0.03)
      << "rho=" << rho << " speed=" << speed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Mm1SweepTest,
    ::testing::Values(SweepCase{0.3, 1.0}, SweepCase{0.6, 1.0}, SweepCase{0.9, 1.0},
                      SweepCase{0.3, 0.5}, SweepCase{0.6, 0.5}, SweepCase{0.9, 0.5},
                      SweepCase{0.5, 0.25}, SweepCase{0.8, 0.75}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      const int rho = static_cast<int>(param_info.param.rho * 100);
      const int speed = static_cast<int>(param_info.param.speed * 100);
      return "rho" + std::to_string(rho) + "_s" + std::to_string(speed);
    });

}  // namespace
}  // namespace gc
