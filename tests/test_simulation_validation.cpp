// Validates the discrete-event simulator against closed-form queueing
// results — the foundation the whole evaluation rests on (DESIGN.md §2).
#include <gtest/gtest.h>

#include "control/policies.h"
#include "queueing/mm1.h"
#include "queueing/mmc.h"
#include "sim/simulation.h"
#include "support/mg1.h"
#include "support/queueing.h"
#include "workload/workload.h"

namespace gc {
namespace {

ClusterOptions single_server_options() {
  ClusterOptions options;
  options.num_servers = 1;
  options.initial_active = 1;
  return options;
}

SimulationOptions long_run(double warmup = 500.0) {
  SimulationOptions options;
  options.t_ref_s = 1.0;
  options.warmup_s = warmup;
  return options;
}

TEST(SimValidation, Mm1MeanResponseTime) {
  // lambda=7, mu=10 -> T = 1/3.
  Workload workload = Workload::poisson_exponential(7.0, 10.0, 20000.0, 101);
  PinnedController controller(1, 1.0);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_GT(result.completed_jobs, 100000u);
  EXPECT_NEAR(result.mean_response_s, mm1::mean_response_time(7.0, 10.0), 0.02);
}

TEST(SimValidation, Mm1ResponseQuantiles) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 20000.0, 102);
  PinnedController controller(1, 1.0);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_NEAR(result.p95_response_s, mm1::response_time_quantile(5.0, 10.0, 0.95), 0.06);
  EXPECT_NEAR(result.p99_response_s, mm1::response_time_quantile(5.0, 10.0, 0.99), 0.15);
}

TEST(SimValidation, Mm1AtReducedSpeed) {
  // s=0.5 halves the service rate: lambda=3, mu_eff=5 -> T = 0.5.
  Workload workload = Workload::poisson_exponential(3.0, 10.0, 20000.0, 103);
  PinnedController controller(1, 0.5);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_NEAR(result.mean_response_s, mm1::mean_response_time(3.0, 5.0), 0.03);
}

TEST(SimValidation, Md1MatchesPollaczekKhinchine) {
  // Deterministic sizes: scv=0 halves the M/M/1 waiting time.
  const double lambda = 7.0;
  const double es = 0.1;
  Workload workload(
      std::make_unique<PoissonProcess>(lambda, 20000.0, Rng(104, 1)),
      Distribution::deterministic(es), Rng(104, 2));
  PinnedController controller(1, 1.0);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_NEAR(result.mean_response_s, mg1::mean_response_time(lambda, es, 0.0), 0.015);
}

TEST(SimValidation, MG1BoundedParetoHeavierThanExp) {
  const double lambda = 5.0;
  // Bounded Pareto with mean ~0.1 and high variance.
  const Distribution sizes = Distribution::bounded_pareto(1.5, 0.02, 10.0);
  Workload workload(std::make_unique<PoissonProcess>(lambda, 30000.0, Rng(105, 1)),
                    sizes, Rng(105, 2));
  PinnedController controller(1, 1.0);
  SimulationOptions options = long_run();
  const SimResult heavy = run_simulation(workload, single_server_options(), controller,
                                         options);
  Workload exp_workload = Workload::poisson_exponential(lambda, 1.0 / sizes.mean(),
                                                        30000.0, 106);
  PinnedController controller2(1, 1.0);
  const SimResult light = run_simulation(exp_workload, single_server_options(),
                                         controller2, options);
  EXPECT_GT(heavy.mean_response_s, light.mean_response_s);
}

TEST(SimValidation, JsqClusterBoundedByTheory) {
  // 4 servers, lambda=24, mu=10: rho=0.6.
  // JSQ sits between M/M/4 (perfect sharing) and 4 independent M/M/1s
  // fed lambda/4 each (random split).
  const double lambda = 24.0, mu = 10.0;
  ClusterOptions options;
  options.num_servers = 4;
  options.initial_active = 4;
  options.dispatch = DispatchPolicy::kJoinShortestQueue;
  Workload workload = Workload::poisson_exponential(lambda, mu, 8000.0, 107);
  PinnedController controller(4, 1.0);
  const SimResult result = run_simulation(workload, options, controller, long_run());
  const double lower = mmc::mean_response_time(lambda, mu, 4);
  const double upper = mm1::mean_response_time(lambda / 4.0, mu);
  EXPECT_GT(result.mean_response_s, lower * 0.95);
  EXPECT_LT(result.mean_response_s, upper * 1.05);
}

TEST(SimValidation, RandomDispatchMatchesSplitMm1) {
  // Random split of a Poisson stream is Poisson: each server is exactly
  // M/M/1 with lambda/m.
  const double lambda = 24.0, mu = 10.0;
  ClusterOptions options;
  options.num_servers = 4;
  options.initial_active = 4;
  options.dispatch = DispatchPolicy::kRandom;
  Workload workload = Workload::poisson_exponential(lambda, mu, 20000.0, 108);
  PinnedController controller(4, 1.0);
  const SimResult result = run_simulation(workload, options, controller, long_run());
  EXPECT_NEAR(result.mean_response_s, mm1::mean_response_time(6.0, 10.0), 0.02);
}

TEST(SimValidation, BusyEnergyMatchesUtilization) {
  // Busy fraction of an M/M/1 server is rho; busy energy = rho * T * P_busy.
  const double lambda = 6.0, mu = 10.0;
  Workload workload = Workload::poisson_exponential(lambda, mu, 20000.0, 109);
  PinnedController controller(1, 1.0);
  SimulationOptions options = long_run();
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, options);
  const double rho = lambda / mu;
  const double expected_busy = rho * result.sim_time_s * 250.0;
  EXPECT_NEAR(result.energy.busy_j, expected_busy, expected_busy * 0.03);
  const double expected_idle = (1.0 - rho) * result.sim_time_s * 150.0;
  EXPECT_NEAR(result.energy.idle_j, expected_idle, expected_idle * 0.05);
}

TEST(SimValidation, MeanPowerEqualsEnergyOverTime) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 5000.0, 110);
  PinnedController controller(1, 1.0);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_NEAR(result.mean_power_w, result.energy.total_j() / result.sim_time_s, 1e-9);
}

TEST(SimValidation, DeterministicSeedsReproduce) {
  auto run = [] {
    Workload workload = Workload::poisson_exponential(5.0, 10.0, 2000.0, 111);
    PinnedController controller(1, 1.0);
    return run_simulation(workload, single_server_options(), controller, long_run(100.0));
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(SimValidation, WarmupExcludesTransient) {
  // Start all 8 servers ON but route to a cluster sized for the load; with
  // a warmup, reported energy excludes the initial all-on segment.
  Workload w1 = Workload::poisson_exponential(5.0, 10.0, 4000.0, 112);
  Workload w2 = Workload::poisson_exponential(5.0, 10.0, 4000.0, 112);
  PinnedController c1(1, 1.0);
  PinnedController c2(1, 1.0);
  ClusterOptions options;
  options.num_servers = 8;
  options.initial_active = 8;
  SimulationOptions no_warmup = long_run(0.0);
  SimulationOptions with_warmup = long_run(1000.0);
  const SimResult full = run_simulation(w1, options, c1, no_warmup);
  const SimResult trimmed = run_simulation(w2, options, c2, with_warmup);
  EXPECT_LT(trimmed.sim_time_s, full.sim_time_s);
  EXPECT_LT(trimmed.energy.total_j(), full.energy.total_j());
}

TEST(SimValidation, TimelineRecordsWhenEnabled) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 1000.0, 113);
  PinnedController controller(1, 1.0);
  SimulationOptions options = long_run(0.0);
  options.record_interval_s = 50.0;
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, options);
  ASSERT_GE(result.timeline.size(), 15u);
  for (const TimelinePoint& p : result.timeline) {
    EXPECT_GE(p.arrival_rate, 0.0);
    EXPECT_EQ(p.serving, 1u);
    EXPECT_GT(p.power_watts, 0.0);
  }
  // Average measured arrival rate tracks lambda.
  double sum = 0.0;
  for (const TimelinePoint& p : result.timeline) sum += p.arrival_rate;
  EXPECT_NEAR(sum / static_cast<double>(result.timeline.size()), 5.0, 0.5);
}

TEST(SimValidation, LittlesLawOnTimeline) {
  Workload workload = Workload::poisson_exponential(7.0, 10.0, 20000.0, 114);
  PinnedController controller(1, 1.0);
  SimulationOptions options = long_run(500.0);
  options.record_interval_s = 10.0;
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, options);
  double n_sum = 0.0;
  std::size_t count = 0;
  for (const TimelinePoint& p : result.timeline) {
    if (p.time < 500.0) continue;
    n_sum += p.jobs_in_system;
    ++count;
  }
  const double mean_n = n_sum / static_cast<double>(count);
  // L = lambda * T.
  EXPECT_NEAR(mean_n, 7.0 * result.mean_response_s, 0.25);
}

TEST(SimValidation, LittlesLawOnTimeWeightedMetric) {
  // L = lambda * T on the built-in time-weighted jobs-in-system metric.
  const double lambda = 7.0, mu = 10.0;
  Workload workload = Workload::poisson_exponential(lambda, mu, 20000.0, 211);
  PinnedController controller(1, 1.0);
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, long_run());
  EXPECT_NEAR(result.mean_jobs_in_system, lambda * result.mean_response_s, 0.12);
  EXPECT_NEAR(result.mean_jobs_in_system, mm1::mean_number_in_system(lambda, mu), 0.25);
}

TEST(SimValidation, HardStopTerminatesOverloadedRun) {
  // lambda > mu: unstable; hard stop must end the run.
  Workload workload = Workload::poisson_exponential(20.0, 10.0, 100000.0, 115);
  PinnedController controller(1, 1.0);
  SimulationOptions options;
  options.t_ref_s = 1.0;
  options.hard_stop_s = 500.0;
  const SimResult result =
      run_simulation(workload, single_server_options(), controller, options);
  EXPECT_LE(result.sim_time_s, 501.0);
  EXPECT_GT(result.completed_jobs, 0u);
}

}  // namespace
}  // namespace gc
