#include "exp/runner.h"

#include <gtest/gtest.h>

#include "exp/comparison.h"

namespace gc {
namespace {

RunSpec fast_spec() {
  RunSpec spec;
  spec.config = bench_cluster_config();
  spec.policy_options.dcp = bench_dcp_params();
  spec.seed = 7;
  return spec;
}

Scenario fast_scenario() {
  // A short constant-load slice keeps these tests quick.
  return make_scenario(ScenarioKind::kConstant, bench_cluster_config(), 0.5, 3, 1200.0);
}

TEST(RunSpec, EffectiveSimDefaultsWarmupToTwoLongPeriods) {
  const RunSpec spec = fast_spec();
  const SimulationOptions options = spec.effective_sim_options();
  EXPECT_DOUBLE_EQ(options.warmup_s, 2.0 * spec.policy_options.dcp.long_period_s);
  EXPECT_DOUBLE_EQ(options.t_ref_s, spec.config.t_ref_s);
}

TEST(RunSpec, ExplicitWarmupIsKept) {
  RunSpec spec = fast_spec();
  spec.sim.warmup_s = 123.0;
  EXPECT_DOUBLE_EQ(spec.effective_sim_options().warmup_s, 123.0);
}

TEST(Runner, RunOneCompletesJobs) {
  const SimResult result = run_one(fast_scenario(), fast_spec());
  EXPECT_GT(result.completed_jobs, 10000u);
  EXPECT_EQ(result.dropped_jobs, 0u);
  EXPECT_GT(result.energy.total_j(), 0.0);
}

TEST(Runner, DeterministicForSameSeed) {
  const SimResult a = run_one(fast_scenario(), fast_spec());
  const SimResult b = run_one(fast_scenario(), fast_spec());
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(Runner, SeedChangesResult) {
  RunSpec other = fast_spec();
  other.seed = 8;
  const SimResult a = run_one(fast_scenario(), fast_spec());
  const SimResult b = run_one(fast_scenario(), other);
  EXPECT_NE(a.completed_jobs, b.completed_jobs);
}

TEST(Runner, RunAllMatchesRunOne) {
  std::vector<Cell> cells;
  cells.push_back({fast_scenario(), fast_spec()});
  RunSpec npm = fast_spec();
  npm.policy = PolicyKind::kNpm;
  cells.push_back({fast_scenario(), npm});
  const auto results = run_all(cells);
  ASSERT_EQ(results.size(), 2u);
  const SimResult solo = run_one(fast_scenario(), fast_spec());
  EXPECT_DOUBLE_EQ(results[0].energy.total_j(), solo.energy.total_j());
  // NPM burns more than combined.
  EXPECT_GT(results[1].energy.total_j(), results[0].energy.total_j());
}

TEST(Runner, ReplicationsDifferButAgreeOnAverage) {
  const auto results = run_replicated(fast_scenario(), fast_spec(), 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NE(results[0].completed_jobs, results[1].completed_jobs);
  for (const SimResult& r : results) {
    EXPECT_NEAR(r.mean_response_s, results[0].mean_response_s,
                results[0].mean_response_s * 0.3);
  }
}

TEST(Runner, OraclePolicyRunsViaScenarioProfile) {
  RunSpec spec = fast_spec();
  spec.policy = PolicyKind::kOracle;
  const SimResult oracle = run_one(fast_scenario(), spec);
  EXPECT_GT(oracle.completed_jobs, 10000u);
  EXPECT_TRUE(oracle.sla_met(spec.config.t_ref_s));
}

TEST(Runner, JobSizeOverrideChangesService) {
  RunSpec spec = fast_spec();
  spec.job_size = Distribution::deterministic(1.0 / spec.config.mu_max);
  const SimResult det = run_one(fast_scenario(), spec);
  const SimResult exp_sizes = run_one(fast_scenario(), fast_spec());
  // Deterministic service halves queueing (P-K): strictly better response.
  EXPECT_LT(det.mean_response_s, exp_sizes.mean_response_s);
}

TEST(Comparison, RowsIncludeNpmBaseline) {
  const auto rows = compare_policies(fast_scenario(), fast_spec(),
                                     {PolicyKind::kCombinedDcp});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].policy, PolicyKind::kNpm);
  EXPECT_NEAR(rows[0].savings_vs_npm_pct, 0.0, 1e-9);
  EXPECT_GT(rows[1].savings_vs_npm_pct, 0.0);
}

TEST(Comparison, TableRendersAllRows) {
  const auto rows = compare_policies(fast_scenario(), fast_spec(),
                                     {PolicyKind::kDvfsOnly});
  const TablePrinter table = comparison_table("test", rows);
  EXPECT_EQ(table.num_rows(), rows.size());
  const std::string out = table.to_string();
  EXPECT_NE(out.find("npm"), std::string::npos);
  EXPECT_NE(out.find("dvfs-only"), std::string::npos);
}

}  // namespace
}  // namespace gc
