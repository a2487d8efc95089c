// Determinism goldens: fixed-seed end-to-end runs whose SimResult checksums
// are pinned to the values produced by the pre-optimization simulator core,
// re-pinned once for a deliberate model change: p95/p99 are read from the
// response LogHistogram instead of P² estimators (every other field kept
// its bits).
//
// These tests exist to make hot-path rewrites (event queue internals,
// dispatcher indexing, solver caching) provably behavior-preserving: any
// change that alters a single event ordering, routing decision or solver
// output shifts the checksum.  If one of these fails after a refactor, the
// refactor changed simulation *behavior*, not just its speed — fix the
// refactor, do not re-pin the checksum (re-pinning is only legitimate for
// a deliberate, documented model change).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "control/policies.h"
#include "exp/scenario.h"
#include "sim/simulation.h"

namespace gc {
namespace {

// Order-sensitive 64-bit fold (FNV-style avalanche per word).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

// Covers every scalar of SimResult plus the full timeline, bit-exactly.
std::uint64_t checksum(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.completed_jobs);
  h = mix(h, r.dropped_jobs);
  h = mix(h, r.shed_jobs);
  h = mix(h, r.failures);
  h = mix(h, r.repairs);
  h = mix(h, r.boot_timeouts);
  h = mix(h, r.jobs_redispatched);
  h = mix(h, r.jobs_lost);
  h = mix(h, r.sim_time_s);
  h = mix(h, r.mean_response_s);
  h = mix(h, r.p95_response_s);
  h = mix(h, r.p99_response_s);
  h = mix(h, r.max_response_s);
  h = mix(h, r.job_violation_ratio);
  h = mix(h, r.window_violation_ratio);
  h = mix(h, r.energy.busy_j);
  h = mix(h, r.energy.idle_j);
  h = mix(h, r.energy.transition_j);
  h = mix(h, r.energy.off_j);
  h = mix(h, r.mean_power_w);
  h = mix(h, r.boots);
  h = mix(h, r.shutdowns);
  h = mix(h, r.mean_serving);
  h = mix(h, r.mean_speed);
  h = mix(h, r.mean_jobs_in_system);
  h = mix(h, r.mean_available);
  h = mix(h, r.unavailability);
  h = mix(h, r.shed_ratio);
  h = mix(h, r.infeasible_ticks);
  h = mix(h, r.infeasible_ratio);
  for (const TimelinePoint& p : r.timeline) {
    h = mix(h, p.time);
    h = mix(h, p.arrival_rate);
    h = mix(h, static_cast<std::uint64_t>(p.serving));
    h = mix(h, static_cast<std::uint64_t>(p.powered));
    h = mix(h, static_cast<std::uint64_t>(p.available));
    h = mix(h, p.speed);
    h = mix(h, p.power_watts);
    h = mix(h, p.jobs_in_system);
    h = mix(h, p.window_mean_response_s);
    h = mix(h, p.admit_probability);
  }
  return h;
}

// The shared fixed-seed setup: the 16-server bench cluster on a diurnal
// day compressed to 2400 s, ~one day of load.
struct GoldenRun {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  Scenario scenario;

  GoldenRun() {
    popts.dcp = bench_dcp_params();
    scenario = make_scenario(ScenarioKind::kDiurnal, config, /*level=*/0.7,
                             /*seed=*/1234, /*day_s=*/2400.0);
  }

  [[nodiscard]] SimResult run(PolicyKind kind, const SimulationOptions& extra) {
    Workload workload = scenario.make_workload(config, /*seed=*/97);
    const Provisioner solver(config);
    const auto controller = make_policy(kind, &solver, popts);
    ClusterOptions cluster;
    cluster.num_servers = config.max_servers;
    cluster.power = config.power;
    cluster.transition = config.transition;
    cluster.initial_active = config.max_servers;
    cluster.dispatch_seed = 4242;
    SimulationOptions sim = extra;
    sim.t_ref_s = config.t_ref_s;
    sim.warmup_s = popts.dcp.long_period_s;
    sim.record_interval_s = 120.0;
    return run_simulation(workload, cluster, *controller, sim);
  }
};

TEST(DeterminismGolden, CombinedDcpDiurnal) {
  GoldenRun golden;
  const SimResult result = golden.run(PolicyKind::kCombinedDcp, {});
  EXPECT_EQ(checksum(result), 7698358306312404789ULL);
}

TEST(DeterminismGolden, FailureAwareDcpUnderBackgroundFaults) {
  GoldenRun golden;
  SimulationOptions sim;
  sim.faults.mtbf_s = 4000.0;
  sim.faults.mttr_s = 300.0;
  sim.faults.boot_hang_prob = 0.1;
  sim.faults.seed = 77;
  const SimResult result = golden.run(PolicyKind::kDcpFailureAware, sim);
  EXPECT_EQ(checksum(result), 4786940030221795142ULL);
}

TEST(DeterminismGolden, ScriptedFaultScenarioWithAdmission) {
  GoldenRun golden;
  SimulationOptions sim;
  sim.faults.script = {{600.0, 0, 900.0}, {600.0, 1, 900.0}, {601.0, 2, 1200.0},
                       {1200.0, 3, std::numeric_limits<double>::infinity()}};
  sim.faults.seed = 99;
  sim.admission.enabled = true;
  sim.admission.mu_max = golden.config.mu_max;
  const SimResult result = golden.run(PolicyKind::kCombinedDcp, sim);
  EXPECT_EQ(checksum(result), 2113958324298853593ULL);
}

// The checksum itself must be stable across platforms/compilers for the
// goldens to mean anything; pin its behavior on known words.
TEST(DeterminismGolden, ChecksumPrimitiveIsStable) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, std::uint64_t{42});
  h = mix(h, 1.5);
  EXPECT_EQ(h, mix(mix(0xcbf29ce484222325ULL, std::uint64_t{42}), 1.5));
  EXPECT_NE(mix(0, std::uint64_t{1}), mix(0, std::uint64_t{2}));
  EXPECT_NE(mix(0, 1.0), mix(0, -1.0));
}

}  // namespace
}  // namespace gc
