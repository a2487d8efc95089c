// End-to-end simulation tests with fault injection and admission control:
// determinism, metric plumbing, graceful degradation under capacity
// shortfall and the failure-aware policy running over a faulty fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "control/policies.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace gc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ClusterConfig config8() {
  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

SimResult run(PolicyKind kind, SimulationOptions sim, double rate,
              double horizon, std::uint64_t seed = 3) {
  const ClusterConfig config = config8();
  const Provisioner provisioner(config);
  PolicyOptions popts;
  const auto controller = make_policy(kind, &provisioner, popts);
  Workload workload =
      Workload::poisson_exponential(rate, config.mu_max, horizon, seed);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 11;
  sim.t_ref_s = config.t_ref_s;
  return run_simulation(workload, cluster, *controller, sim);
}

TEST(FaultSim, BackgroundFaultsProduceConsistentMetrics) {
  SimulationOptions sim;
  sim.faults.mtbf_s = 300.0;
  sim.faults.mttr_s = 60.0;
  sim.faults.seed = 5;
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  EXPECT_GT(result.completed_jobs, 10000u);
  EXPECT_GT(result.failures, 0u);
  EXPECT_GT(result.repairs, 0u);
  EXPECT_LE(result.repairs, result.failures);
  EXPECT_GT(result.unavailability, 0.0);
  EXPECT_LT(result.unavailability, 1.0);
  EXPECT_LT(result.mean_available, 8.0);
  // unavailability is defined off mean_available over the same clock.
  EXPECT_NEAR(result.unavailability, 1.0 - result.mean_available / 8.0, 1e-9);
  EXPECT_TRUE(std::isfinite(result.energy.total_j()));
  EXPECT_GT(result.energy.total_j(), 0.0);
}

TEST(FaultSim, IdenticalSpecsAreBitwiseReproducible) {
  SimulationOptions sim;
  sim.faults.mtbf_s = 250.0;
  sim.faults.mttr_s = 50.0;
  sim.faults.boot_hang_prob = 0.3;
  sim.faults.seed = 9;
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  const SimResult a = run(PolicyKind::kDcpFailureAware, sim, 20.0, 1200.0);
  const SimResult b = run(PolicyKind::kDcpFailureAware, sim, 20.0, 1200.0);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.shed_jobs, b.shed_jobs);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(FaultSim, IdleAdmissionControlLeavesTheRunUntouched) {
  // With ample capacity the admit probability stays at 1, no RNG is drawn,
  // and the run is event-for-event identical to admission disabled.
  SimulationOptions plain;
  SimulationOptions gated;
  gated.admission.enabled = true;
  gated.admission.mu_max = 10.0;
  const SimResult a = run(PolicyKind::kNpm, plain, 15.0, 800.0);
  const SimResult b = run(PolicyKind::kNpm, gated, 15.0, 800.0);
  EXPECT_EQ(b.shed_jobs, 0u);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(FaultSim, CapacityShortfallShedsAndKeepsAdmittedJobsFast) {
  // Five of eight servers die for good at t=400; the surviving three can
  // serve ~24/s but 30/s keep arriving.  Admission control sheds the excess
  // and the admitted jobs stay within the mean-response guarantee.
  SimulationOptions sim;
  for (std::uint32_t s = 3; s < 8; ++s) {
    sim.faults.script.push_back({400.0, s, kInf});
  }
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  const SimResult result = run(PolicyKind::kNpm, sim, 30.0, 1500.0);
  EXPECT_EQ(result.failures, 5u);
  EXPECT_EQ(result.repairs, 0u);
  EXPECT_GT(result.shed_jobs, 0u);
  EXPECT_GT(result.shed_ratio, 0.05);
  EXPECT_LT(result.shed_ratio, 0.6);
  EXPECT_GT(result.unavailability, 0.3);
  // Graceful degradation: the admitted stream still meets T_ref on average.
  EXPECT_LT(result.mean_response_s, 0.5);
  EXPECT_EQ(result.dropped_jobs, 0u);
}

TEST(FaultSim, SheddingBeatsQueueCollapseOnMeanResponse) {
  SimulationOptions shed;
  for (std::uint32_t s = 2; s < 8; ++s) {
    shed.faults.script.push_back({300.0, s, kInf});
  }
  shed.admission.enabled = true;
  shed.admission.mu_max = 10.0;
  SimulationOptions collapse = shed;
  collapse.admission.enabled = false;
  collapse.hard_stop_s = 1400.0;
  // Two survivors vs 30/s offered: without shedding the queue grows without
  // bound; with it, admitted jobs stay orders of magnitude faster.
  const SimResult graceful = run(PolicyKind::kNpm, shed, 30.0, 1200.0);
  const SimResult collapsed = run(PolicyKind::kNpm, collapse, 30.0, 1200.0);
  EXPECT_GT(graceful.shed_jobs, 0u);
  EXPECT_LT(graceful.mean_response_s * 5.0, collapsed.mean_response_s);
}

TEST(FaultSim, FailureAwarePolicyRunsOverFaultyFleet) {
  SimulationOptions sim;
  sim.faults.mtbf_s = 200.0;
  sim.faults.mttr_s = 40.0;
  sim.faults.boot_hang_prob = 0.5;
  sim.faults.seed = 17;
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  const SimResult result = run(PolicyKind::kDcpFailureAware, sim, 20.0, 1500.0);
  // The fleet is savaged (MTBF 200 s, half the boots hang): most of the
  // offered load is shed, but the run completes and stays consistent.
  EXPECT_GT(result.completed_jobs, 1000u);
  EXPECT_GT(result.shed_jobs, 0u);
  EXPECT_GT(result.failures, 0u);
  EXPECT_GT(result.repairs, 0u);
  // Crashed serving servers hand their jobs to survivors.
  EXPECT_GT(result.jobs_redispatched, 0u);
  EXPECT_TRUE(std::isfinite(result.mean_response_s));
}

TEST(FaultSim, BootHangsSurfaceAsBootTimeouts) {
  SimulationOptions sim;
  sim.faults.mtbf_s = 150.0;
  sim.faults.mttr_s = 20.0;
  sim.faults.boot_hang_prob = 0.8;
  sim.faults.seed = 23;
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  const SimResult result = run(PolicyKind::kDcpFailureAware, sim, 20.0, 1500.0);
  EXPECT_GT(result.boot_timeouts, 0u);
  EXPECT_GE(result.failures, result.boot_timeouts);
}

TEST(FaultSim, InfeasibleTicksAreCounted) {
  // 8 servers serve at most 8 * (mu - 1/T_ref) = 64/s; offering 90/s makes
  // every solver-driven tick infeasible.
  SimulationOptions sim;
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  sim.hard_stop_s = 900.0;
  const SimResult overloaded = run(PolicyKind::kCombinedDcp, sim, 90.0, 800.0);
  EXPECT_GT(overloaded.infeasible_ticks, 0u);
  EXPECT_GT(overloaded.infeasible_ratio, 0.5);
  SimulationOptions calm_sim;
  const SimResult calm = run(PolicyKind::kCombinedDcp, calm_sim, 15.0, 800.0);
  EXPECT_EQ(calm.infeasible_ticks, 0u);
  EXPECT_DOUBLE_EQ(calm.infeasible_ratio, 0.0);
}

TEST(FaultSim, TimelineRecordsAvailabilityAndAdmitProbability) {
  SimulationOptions sim;
  for (std::uint32_t s = 3; s < 8; ++s) {
    sim.faults.script.push_back({200.0, s, kInf});
  }
  sim.admission.enabled = true;
  sim.admission.mu_max = 10.0;
  sim.record_interval_s = 50.0;
  const SimResult result = run(PolicyKind::kNpm, sim, 30.0, 800.0);
  ASSERT_FALSE(result.timeline.empty());
  bool saw_degraded = false;
  for (const TimelinePoint& point : result.timeline) {
    EXPECT_LE(point.available, 8u);
    if (point.time > 250.0 && point.available <= 3 &&
        point.admit_probability < 1.0) {
      saw_degraded = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
}

}  // namespace
}  // namespace gc
