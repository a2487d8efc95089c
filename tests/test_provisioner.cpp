#include "core/provisioner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "queueing/mm1.h"
#include "stats/rng.h"

namespace gc {
namespace {

ClusterConfig small_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

// Reference solver: brute force over every (m, ladder level) pair.  Slow
// but unarguably correct; everything else is tested against it.
OperatingPoint brute_force(const Provisioner& solver, double lambda) {
  const ClusterConfig& config = solver.config();
  OperatingPoint best;
  bool found = false;
  std::vector<double> speeds;
  if (config.ladder.is_continuous()) {
    // For the continuous ladder the optimum is s_min(m); enumerate those.
    for (unsigned m = config.min_servers; m <= config.max_servers; ++m) {
      const auto s = solver.min_speed(lambda, m);
      if (s) speeds.push_back(std::max(*s, config.ladder.min_speed()));
    }
  } else {
    for (std::size_t i = 0; i < config.ladder.num_levels(); ++i) {
      speeds.push_back(config.ladder.speed_of_level(i));
    }
  }
  for (unsigned m = config.min_servers; m <= config.max_servers; ++m) {
    for (const double s : speeds) {
      const OperatingPoint pt = solver.evaluate(lambda, m, s);
      if (!pt.feasible) continue;
      if (!found || pt.better_than(best)) {
        best = pt;
        found = true;
      }
    }
  }
  if (!found) {
    best = solver.evaluate(lambda, config.max_servers, 1.0);
    best.feasible = false;
  }
  return best;
}

TEST(Provisioner, MinSpeedClosedForm) {
  const Provisioner solver(small_config());
  // s_min = (lambda/m + 1/t_ref) / mu = (8/4 + 2)/10 = 0.4.
  const auto s = solver.min_speed(8.0, 4);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(*s, 0.4, 1e-12);
}

TEST(Provisioner, MinSpeedInfeasibleWhenTooFast) {
  const Provisioner solver(small_config());
  // One server at s=1 serves at most mu - 1/t_ref = 8/s.
  EXPECT_FALSE(solver.min_speed(9.0, 1).has_value());
  EXPECT_TRUE(solver.min_speed(7.9, 1).has_value());
}

TEST(Provisioner, MinSpeedMeetsSlaExactly) {
  const Provisioner solver(small_config());
  for (double lambda : {0.0, 5.0, 20.0, 60.0, 100.0}) {
    for (unsigned m = 1; m <= 16; ++m) {
      const auto s = solver.min_speed(lambda, m);
      if (!s) continue;
      const double mu = *s * solver.config().mu_max;
      const double per_server = lambda / m;
      ASSERT_TRUE(mm1::stable(per_server, mu));
      EXPECT_NEAR(mm1::mean_response_time(per_server, mu), solver.config().t_ref_s, 1e-9);
    }
  }
}

TEST(Provisioner, MinFeasibleServers) {
  const Provisioner solver(small_config());
  // Per-server feasible capacity is 8/s.
  EXPECT_EQ(solver.min_feasible_servers(0.0).value(), 1u);
  EXPECT_EQ(solver.min_feasible_servers(8.0).value(), 1u);
  EXPECT_EQ(solver.min_feasible_servers(8.1).value(), 2u);
  EXPECT_EQ(solver.min_feasible_servers(64.0).value(), 8u);
  EXPECT_EQ(solver.min_feasible_servers(128.0).value(), 16u);
  EXPECT_FALSE(solver.min_feasible_servers(128.1).has_value());
}

TEST(Provisioner, EvaluateReportsConsistentPoint) {
  const Provisioner solver(small_config());
  const OperatingPoint pt = solver.evaluate(16.0, 4, 0.6);
  EXPECT_EQ(pt.servers, 4u);
  EXPECT_DOUBLE_EQ(pt.speed, 0.6);
  // rho = 16 / (4 * 0.6 * 10) = 0.6667
  EXPECT_NEAR(pt.utilization, 16.0 / 24.0, 1e-12);
  // T = 1/(6 - 4) = 0.5 -> exactly on the SLA
  EXPECT_NEAR(pt.response_time_s, 0.5, 1e-12);
  EXPECT_TRUE(pt.feasible);
}

TEST(Provisioner, EvaluateIncludesOffPower) {
  ClusterConfig config = small_config();
  config.power.p_off_watts = 5.0;
  const Provisioner solver(config);
  const OperatingPoint pt = solver.evaluate(0.0, 1, 1.0);
  // 15 off servers at 5 W each contribute 75 W.
  EXPECT_GE(pt.power_watts, 75.0);
}

TEST(Provisioner, SolveOnSmallClusterMatchesBruteForce) {
  const Provisioner solver(small_config());
  for (double lambda = 0.0; lambda <= 130.0; lambda += 2.5) {
    const OperatingPoint got = solver.solve(lambda);
    const OperatingPoint want = brute_force(solver, lambda);
    EXPECT_EQ(got.feasible, want.feasible) << "lambda=" << lambda;
    if (want.feasible) {
      EXPECT_NEAR(got.power_watts, want.power_watts, 1e-9) << "lambda=" << lambda;
      EXPECT_EQ(got.servers, want.servers) << "lambda=" << lambda;
    }
  }
}

TEST(Provisioner, SolveInfeasibleFallsBackToBestEffort) {
  const Provisioner solver(small_config());
  const OperatingPoint pt = solver.solve(1000.0);
  EXPECT_FALSE(pt.feasible);
  EXPECT_EQ(pt.servers, 16u);
  EXPECT_DOUBLE_EQ(pt.speed, 1.0);
}

TEST(Provisioner, SolutionIsFeasibleAndOnLadder) {
  const Provisioner solver(small_config());
  for (double lambda = 0.0; lambda <= 128.0; lambda += 1.0) {
    const OperatingPoint pt = solver.solve(lambda);
    ASSERT_TRUE(pt.feasible) << lambda;
    EXPECT_TRUE(solver.config().ladder.contains(pt.speed)) << lambda;
    EXPECT_LE(pt.response_time_s, solver.config().t_ref_s * (1.0 + 1e-9)) << lambda;
  }
}

TEST(Provisioner, PowerIsMonotoneInLoad) {
  const Provisioner solver(small_config());
  double prev = -1.0;
  for (double lambda = 0.0; lambda <= 128.0; lambda += 4.0) {
    const OperatingPoint pt = solver.solve(lambda);
    EXPECT_GE(pt.power_watts, prev - 1e-9) << "lambda=" << lambda;
    prev = pt.power_watts;
  }
}

TEST(Provisioner, CombinedBeatsBothSingleKnobBaselines) {
  const Provisioner solver(small_config());
  const ClusterConfig& config = solver.config();
  for (double lambda : {10.0, 30.0, 60.0, 90.0, 110.0}) {
    const OperatingPoint combined = solver.solve(lambda);
    // DVFS-only: all servers on, cheapest feasible speed.
    const OperatingPoint dvfs = solver.best_speed_for(lambda, config.max_servers);
    // VOVF-only: fewest servers at full speed.
    OperatingPoint vovf;
    for (unsigned m = 1; m <= config.max_servers; ++m) {
      vovf = solver.evaluate(lambda, m, 1.0);
      if (vovf.feasible) break;
    }
    EXPECT_LE(combined.power_watts, dvfs.power_watts + 1e-9) << lambda;
    EXPECT_LE(combined.power_watts, vovf.power_watts + 1e-9) << lambda;
  }
}

TEST(Provisioner, BestSpeedForSaturatedReturnsInfeasibleFullSpeed) {
  const Provisioner solver(small_config());
  const OperatingPoint pt = solver.best_speed_for(200.0, 2);
  EXPECT_FALSE(pt.feasible);
  EXPECT_DOUBLE_EQ(pt.speed, 1.0);
}

TEST(Provisioner, ContinuousRelaxationBracketsDiscrete) {
  ClusterConfig config = small_config();
  config.ladder = FrequencyLadder::continuous(0.05);
  const Provisioner solver(config);
  for (double lambda : {5.0, 25.0, 70.0, 110.0}) {
    const ContinuousSolution relaxed = solver.solve_continuous(lambda);
    const OperatingPoint discrete = solver.solve(lambda);
    ASSERT_TRUE(relaxed.feasible);
    // Relaxation is a lower bound on the discrete optimum.
    EXPECT_LE(relaxed.power_watts, discrete.power_watts + 1e-6) << lambda;
    // And the discrete optimum is within the power of ceil/floor neighbors.
    EXPECT_NEAR(static_cast<double>(discrete.servers), relaxed.servers, 2.0) << lambda;
  }
}

TEST(Provisioner, RelaxedPowerMatchesEvaluateOnIntegerPoints) {
  ClusterConfig config = small_config();
  config.ladder = FrequencyLadder::continuous(0.01);
  const Provisioner solver(config);
  const double lambda = 40.0;
  for (unsigned m = 6; m <= 16; ++m) {
    const auto s = solver.min_speed(lambda, m);
    ASSERT_TRUE(s.has_value());
    const OperatingPoint pt = solver.evaluate(lambda, m, std::max(*s, 0.01));
    EXPECT_NEAR(solver.relaxed_power(lambda, m), pt.power_watts, 1e-6) << m;
  }
}

// Randomized property: solve_fast agrees with the exact scan across many
// configurations and loads.
struct FastCase {
  std::uint64_t seed;
};

class ProvisionerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProvisionerPropertyTest, FastMatchesScan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    ClusterConfig config;
    config.max_servers = 2 + static_cast<unsigned>(rng.uniform_below(510));
    config.mu_max = 5.0 + 45.0 * rng.uniform01();
    config.t_ref_s = 1.5 / config.mu_max + 0.5 * rng.uniform01();
    config.power.alpha = 1.0 + 3.0 * rng.uniform01();
    config.power.utilization_gated = rng.uniform01() < 0.5;
    if (rng.uniform01() < 0.3) {
      config.ladder = FrequencyLadder::continuous(0.05 + 0.2 * rng.uniform01());
    }
    const Provisioner solver(config);
    const double max_rate = config.max_feasible_arrival_rate();
    for (int i = 0; i < 12; ++i) {
      const double lambda = max_rate * 1.05 * rng.uniform01();
      const OperatingPoint scan = solver.solve(lambda);
      const OperatingPoint fast = solver.solve_fast(lambda);
      EXPECT_EQ(scan.feasible, fast.feasible) << "M=" << config.max_servers
                                              << " lambda=" << lambda;
      EXPECT_NEAR(scan.power_watts, fast.power_watts, 1e-6 * (1.0 + scan.power_watts))
          << "M=" << config.max_servers << " lambda=" << lambda
          << " scan m=" << scan.servers << " fast m=" << fast.servers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvisionerPropertyTest, ::testing::Range(0, 6));

TEST(Provisioner, MmcModelSolves) {
  ClusterConfig config = small_config();
  config.perf_model = PerfModel::kMmcCluster;
  const Provisioner solver(config);
  const OperatingPoint pt = solver.solve(40.0);
  ASSERT_TRUE(pt.feasible);
  EXPECT_LE(pt.response_time_s, config.t_ref_s * (1.0 + 1e-6));
}

TEST(Provisioner, MmcNeedsNoMoreServersThanMm1) {
  // The shared-queue bound is less conservative: for the same load it never
  // requires more power than the per-server model.
  ClusterConfig mm1_config = small_config();
  ClusterConfig mmc_config = small_config();
  mmc_config.perf_model = PerfModel::kMmcCluster;
  const Provisioner mm1_solver(mm1_config);
  const Provisioner mmc_solver(mmc_config);
  for (double lambda : {10.0, 40.0, 80.0, 120.0}) {
    EXPECT_LE(mmc_solver.solve(lambda).power_watts,
              mm1_solver.solve(lambda).power_watts + 1e-9)
        << lambda;
  }
}

TEST(Provisioner, ZeroLoadUsesMinServersAtLowSpeed) {
  const Provisioner solver(small_config());
  const OperatingPoint pt = solver.solve(0.0);
  EXPECT_EQ(pt.servers, 1u);
  // s_min(1) at lambda 0 is (1/t_ref)/mu = 0.2 -> rounds up to 0.25.
  EXPECT_NEAR(pt.speed, 0.25, 1e-12);
}

TEST(Provisioner, SolveCappedMatchesSolveWhenTheCapIsLoose) {
  const Provisioner solver(small_config());
  for (double lambda : {0.0, 5.0, 20.0, 60.0, 100.0}) {
    const OperatingPoint uncapped = solver.solve(lambda);
    const OperatingPoint capped = solver.solve_capped(lambda, 16);
    EXPECT_EQ(capped.servers, uncapped.servers) << lambda;
    EXPECT_DOUBLE_EQ(capped.speed, uncapped.speed) << lambda;
    EXPECT_EQ(capped.feasible, uncapped.feasible) << lambda;
    // A cap beyond the fleet clamps to max_servers.
    const OperatingPoint over = solver.solve_capped(lambda, 100);
    EXPECT_EQ(over.servers, uncapped.servers) << lambda;
  }
}

TEST(Provisioner, SolveCappedBindsAtTheCap) {
  const Provisioner solver(small_config());
  // 60/s needs at least ceil(60 / (mu - 1/t_ref)) = 8 servers.
  const OperatingPoint at_min = solver.solve_capped(60.0, 8);
  EXPECT_TRUE(at_min.feasible);
  EXPECT_EQ(at_min.servers, 8u);
  for (unsigned cap = 8; cap <= 16; ++cap) {
    const OperatingPoint pt = solver.solve_capped(60.0, cap);
    EXPECT_TRUE(pt.feasible) << cap;
    EXPECT_LE(pt.servers, cap) << cap;
  }
}

TEST(Provisioner, SolveCappedInfeasibleBelowMinServers) {
  const Provisioner solver(small_config());
  // 5 servers cannot carry 60/s within the SLA even at full speed.
  const OperatingPoint pt = solver.solve_capped(60.0, 5);
  EXPECT_FALSE(pt.feasible);
  // Best effort: report the whole capped fleet at full tilt.
  EXPECT_EQ(pt.servers, 5u);
}

TEST(Provisioner, SolveInfeasibleBeyondMaxRate) {
  const Provisioner solver(small_config());
  // The fleet tops out at 16 * (10 - 2) = 128/s.
  EXPECT_TRUE(solver.solve(120.0).feasible);
  const OperatingPoint pt = solver.solve(200.0);
  EXPECT_FALSE(pt.feasible);
  const OperatingPoint capped = solver.solve_capped(200.0, 16);
  EXPECT_FALSE(capped.feasible);
  EXPECT_EQ(capped.servers, 16u);
}

// -- memo cache -------------------------------------------------------------

TEST(ProvisionerCache, RepeatQueriesHitAndMatchFirstAnswerExactly) {
  const Provisioner solver(small_config());
  Rng rng(321);
  std::vector<double> lambdas;
  for (int i = 0; i < 32; ++i) lambdas.push_back(rng.uniform01() * 120.0);

  std::vector<OperatingPoint> first;
  for (const double lambda : lambdas) first.push_back(solver.solve(lambda));
  const std::uint64_t misses_after_first = solver.cache_stats().misses;

  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    const OperatingPoint again = solver.solve(lambdas[i]);
    // Bit-identical, not approximately equal: a hit replays the stored point.
    EXPECT_EQ(again.servers, first[i].servers);
    EXPECT_EQ(again.speed, first[i].speed);
    EXPECT_EQ(again.power_watts, first[i].power_watts);
    EXPECT_EQ(again.response_time_s, first[i].response_time_s);
    EXPECT_EQ(again.feasible, first[i].feasible);
  }
  EXPECT_EQ(solver.cache_stats().misses, misses_after_first);
  EXPECT_GE(solver.cache_stats().hits, lambdas.size());
  EXPECT_GT(solver.cache_stats().hit_rate(), 0.45);
}

TEST(ProvisionerCache, OperationsAndCapsDoNotAliasEachOther) {
  const Provisioner solver(small_config());
  const double lambda = 40.0;
  // λ = 40 needs m >= 5 (s_min(m) = (40/m + 2)/10 <= 1), so a cap of 3 is
  // infeasible and pins capped.servers = 3 while solve() picks m >= 5.
  const OperatingPoint full = solver.solve(lambda);
  const OperatingPoint capped = solver.solve_capped(lambda, 3);
  const OperatingPoint fixed = solver.best_speed_for(lambda, 3);
  // Same λ, three different questions: the cache must keep them distinct.
  EXPECT_NE(capped.servers, full.servers);
  EXPECT_FALSE(capped.feasible);
  EXPECT_EQ(fixed.servers, 3u);
  EXPECT_EQ(solver.solve_capped(lambda, 3).servers, capped.servers);
  EXPECT_EQ(solver.best_speed_for(lambda, 3).speed, fixed.speed);
  // A cap at or beyond the fleet shares the clamped entry.
  const OperatingPoint wide = solver.solve_capped(lambda, 16);
  EXPECT_EQ(solver.solve_capped(lambda, 99).servers, wide.servers);
}

TEST(Provisioner, RejectsInvalidQueries) {
  const Provisioner solver(small_config());
  EXPECT_DEATH((void)solver.min_speed(1.0, 0), "out of range");
  EXPECT_DEATH((void)solver.min_speed(1.0, 17), "out of range");
  EXPECT_DEATH((void)solver.min_speed(-1.0, 1), "negative");
  EXPECT_DEATH((void)solver.evaluate(1.0, 1, 0.0), "speed");
  EXPECT_DEATH((void)solver.solve(std::nan("")), "bad lambda");
}

// -- the scan's early exit is exact ------------------------------------------
//
// scan_range stops once the rounded speed reaches the ladder floor (M/M/1
// only).  These references are the full scans without that exit; solve()
// and solve_capped() must match them field for field, exactly.

OperatingPoint reference_scan(const Provisioner& solver, double lambda, unsigned lo,
                              unsigned hi) {
  const ClusterConfig& config = solver.config();
  OperatingPoint best;
  bool have_best = false;
  for (unsigned m = lo; m <= hi; ++m) {
    const auto s = solver.min_speed(lambda, m);
    if (!s) continue;
    const OperatingPoint pt = solver.evaluate(lambda, m, config.ladder.round_up(*s));
    if (!pt.feasible) continue;
    if (!have_best || pt.better_than(best)) {
      best = pt;
      have_best = true;
    }
  }
  if (!have_best) {
    best = solver.evaluate(lambda, config.max_servers, 1.0);
    best.feasible = false;
  }
  return best;
}

OperatingPoint reference_solve(const Provisioner& solver, double lambda) {
  const auto m_min = solver.min_feasible_servers(lambda);
  if (!m_min) {
    OperatingPoint pt = solver.evaluate(lambda, solver.config().max_servers, 1.0);
    pt.feasible = false;
    return pt;
  }
  return reference_scan(solver, lambda, *m_min, solver.config().max_servers);
}

OperatingPoint reference_solve_capped(const Provisioner& solver, double lambda,
                                      unsigned m_cap) {
  const auto m_min = solver.min_feasible_servers(lambda);
  OperatingPoint pt;
  if (m_min && *m_min <= m_cap) pt = reference_scan(solver, lambda, *m_min, m_cap);
  if (!m_min || *m_min > m_cap || !pt.feasible || pt.servers > m_cap) {
    pt = solver.evaluate(lambda, m_cap, 1.0);
    pt.feasible = false;
  }
  return pt;
}

void expect_identical(const OperatingPoint& got, const OperatingPoint& want,
                      const std::string& where) {
  EXPECT_EQ(got.servers, want.servers) << where;
  EXPECT_EQ(got.speed, want.speed) << where;
  EXPECT_EQ(got.power_watts, want.power_watts) << where;
  EXPECT_EQ(got.response_time_s, want.response_time_s) << where;
  EXPECT_EQ(got.utilization, want.utilization) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
}

ClusterConfig random_config(Rng& rng, unsigned max_servers) {
  ClusterConfig config;
  config.max_servers = max_servers;
  config.mu_max = 5.0 + 45.0 * rng.uniform01();
  config.t_ref_s = 1.5 / config.mu_max + 0.5 * rng.uniform01();
  config.power.alpha = 1.0 + 3.0 * rng.uniform01();
  config.power.utilization_gated = rng.uniform01() < 0.5;
  if (rng.uniform01() < 0.25) config.power.p_off_watts = config.power.p_idle_watts;
  if (rng.uniform01() < 0.4) {
    config.ladder = FrequencyLadder::continuous(0.05 + 0.3 * rng.uniform01());
  }
  return config;
}

void check_against_reference(const ClusterConfig& config, Rng& rng, int loads) {
  const Provisioner solver(config);
  const double max_rate = config.max_feasible_arrival_rate();
  for (int i = 0; i < loads; ++i) {
    // Mostly light loads (where the floor is reached early and the exit
    // matters), plus zero and just-infeasible ones.
    const double u = rng.uniform01();
    const double lambda = i == 0   ? 0.0
                          : i == 1 ? max_rate * 1.02
                                   : max_rate * 1.05 * u * u * u;
    const unsigned cap =
        1 + static_cast<unsigned>(rng.uniform_below(config.max_servers));
    const std::string where =
        "M=" + std::to_string(config.max_servers) + " lambda=" + std::to_string(lambda) +
        " gated=" + std::to_string(config.power.utilization_gated) +
        " continuous=" + std::to_string(config.ladder.is_continuous()) +
        " p_off=" + std::to_string(config.power.p_off_watts);
    expect_identical(solver.solve(lambda), reference_solve(solver, lambda), where);
    expect_identical(solver.solve_capped(lambda, cap),
                     reference_solve_capped(solver, lambda, cap),
                     where + " cap=" + std::to_string(cap));
  }
}

class ScanExitPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanExitPropertyTest, SolveMatchesFullScanExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  for (int trial = 0; trial < 12; ++trial) {
    const unsigned m = 1 + static_cast<unsigned>(rng.uniform_below(600));
    check_against_reference(random_config(rng, m), rng, 10);
  }
  for (const unsigned m : {4096u, 32768u, 131072u}) {
    check_against_reference(random_config(rng, m), rng, 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanExitPropertyTest, ::testing::Range(0, 6));

// The corner cases the exit condition guards, each pinned explicitly.
TEST(ScanExit, EdgeConfigurationsMatchFullScanExactly) {
  Rng rng(99);
  for (const bool gated : {false, true}) {
    for (const bool continuous : {false, true}) {
      ClusterConfig config;
      config.max_servers = 131072;
      config.power.utilization_gated = gated;
      if (continuous) config.ladder = FrequencyLadder::continuous(0.2);
      check_against_reference(config, rng, 4);
      // p_idle == p_off: gated, an extra server is free, so the exit must
      // not fire; ungated it still costs the dynamic power.
      config.power.p_off_watts = config.power.p_idle_watts;
      check_against_reference(config, rng, 4);
    }
  }
  // Erlang-C model: no monotone closed form, the exit never fires.
  for (const bool gated : {false, true}) {
    ClusterConfig config = small_config();
    config.max_servers = 48;
    config.perf_model = PerfModel::kMmcCluster;
    config.power.utilization_gated = gated;
    check_against_reference(config, rng, 6);
  }
}

}  // namespace
}  // namespace gc
