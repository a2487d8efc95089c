#include "core/hetero.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/provisioner.h"

namespace gc {
namespace {

ServerClass make_class(const char* name, unsigned count, double mu,
                       double p_idle = 150.0, double p_max = 250.0) {
  ServerClass sc;
  sc.name = name;
  sc.count = count;
  sc.mu_max = mu;
  sc.power.p_idle_watts = p_idle;
  sc.power.p_max_watts = p_max;
  sc.power.utilization_gated = false;  // the paper's power law
  return sc;
}

// Servers powered across every class.
unsigned total_active(const HeteroOperatingPoint& point) {
  unsigned total = 0;
  for (const ClassAllocation& alloc : point.allocations) total += alloc.servers;
  return total;
}

HeteroConfig two_class_config() {
  HeteroConfig config;
  config.t_ref_s = 0.5;
  // "new" efficient servers and an "old" power-hungry generation.
  config.classes.push_back(make_class("new", 8, 12.0, 100.0, 200.0));
  config.classes.push_back(make_class("old", 8, 10.0, 180.0, 300.0));
  return config;
}

TEST(HeteroConfig, Validation) {
  HeteroConfig config;
  EXPECT_THROW(config.validate(), std::invalid_argument);  // no classes
  config = two_class_config();
  EXPECT_NO_THROW(config.validate());
  config.t_ref_s = 0.05;  // below 1/mu of the old class
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = two_class_config();
  config.classes[0].count = 0;
  config.classes[1].count = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(HeteroConfig, CapacityAggregates) {
  const HeteroConfig config = two_class_config();
  EXPECT_EQ(config.total_servers(), 16u);
  // new: 8*(12-2)=80; old: 8*(10-2)=64.
  EXPECT_DOUBLE_EQ(config.max_feasible_arrival_rate(), 144.0);
}

TEST(Hetero, SingleClassMatchesHomogeneousSolver) {
  // One class must reproduce Provisioner::solve exactly.
  HeteroConfig hetero_config;
  hetero_config.t_ref_s = 0.5;
  hetero_config.classes.push_back(make_class("only", 16, 10.0));

  ClusterConfig homo_config;
  homo_config.max_servers = 16;
  homo_config.mu_max = 10.0;
  homo_config.t_ref_s = 0.5;
  homo_config.power.utilization_gated = false;
  homo_config.min_servers = 1;

  const HeteroProvisioner hetero(hetero_config);
  const Provisioner homo(homo_config);
  // Start above zero: at lambda == 0 the hetero solver may switch the
  // whole fleet off while the homogeneous one is pinned at min_servers=1.
  for (double lambda = 8.0; lambda <= 128.0; lambda += 8.0) {
    const HeteroOperatingPoint hp = hetero.solve(lambda);
    const OperatingPoint op = homo.solve(lambda);
    ASSERT_TRUE(hp.feasible) << lambda;
    EXPECT_NEAR(hp.power_watts, op.power_watts, 1e-6) << lambda;
    EXPECT_EQ(total_active(hp), op.servers) << lambda;
  }
}

TEST(Hetero, PrefersEfficientClassAtLowLoad) {
  const HeteroProvisioner solver(two_class_config());
  const HeteroOperatingPoint point = solver.solve(30.0);
  ASSERT_TRUE(point.feasible);
  // All load should sit on the efficient "new" class.
  EXPECT_GT(point.allocations[0].servers, 0u);
  EXPECT_EQ(point.allocations[1].servers, 0u);
  EXPECT_NEAR(point.allocations[0].load, 30.0, 1e-9);
}

TEST(Hetero, SpillsToOldClassAtHighLoad) {
  const HeteroProvisioner solver(two_class_config());
  const HeteroOperatingPoint point = solver.solve(120.0);  // > new capacity 80
  ASSERT_TRUE(point.feasible);
  EXPECT_GT(point.allocations[0].servers, 0u);
  EXPECT_GT(point.allocations[1].servers, 0u);
  EXPECT_NEAR(point.allocations[0].load + point.allocations[1].load, 120.0, 1e-6);
}

TEST(Hetero, EveryAllocationMeetsTheSla) {
  const HeteroProvisioner solver(two_class_config());
  for (double lambda = 4.0; lambda <= 144.0; lambda += 10.0) {
    const HeteroOperatingPoint point = solver.solve(lambda);
    ASSERT_TRUE(point.feasible) << lambda;
    for (const ClassAllocation& alloc : point.allocations) {
      if (alloc.servers == 0) continue;
      EXPECT_LE(alloc.response_time_s, 0.5 * (1.0 + 1e-9)) << lambda;
    }
  }
}

TEST(Hetero, PowerMonotoneInLoad) {
  const HeteroProvisioner solver(two_class_config());
  double prev = -1.0;
  for (double lambda = 0.0; lambda <= 144.0; lambda += 6.0) {
    const HeteroOperatingPoint point = solver.solve(lambda);
    EXPECT_GE(point.power_watts, prev - 1e-9) << lambda;
    prev = point.power_watts;
  }
}

TEST(Hetero, BeatsNaiveHomogeneousTreatment) {
  // Treating the whole fleet as 16 worst-class servers (the operator who
  // ignores heterogeneity) must never beat the hetero-aware optimum.
  const HeteroConfig config = two_class_config();
  const HeteroProvisioner hetero(config);

  ClusterConfig naive;
  naive.max_servers = 16;
  naive.mu_max = 10.0;  // worst-class service rate
  naive.t_ref_s = 0.5;
  naive.power.p_idle_watts = 180.0;  // worst-class power
  naive.power.p_max_watts = 300.0;
  naive.power.utilization_gated = false;
  const Provisioner homo(naive);

  for (double lambda : {10.0, 40.0, 80.0, 120.0}) {
    const HeteroOperatingPoint hp = hetero.solve(lambda);
    const OperatingPoint naive_pt = homo.solve(lambda);
    ASSERT_TRUE(hp.feasible) << lambda;
    if (naive_pt.feasible) {
      EXPECT_LE(hp.power_watts, naive_pt.power_watts + 1e-6) << lambda;
    }
  }
}

TEST(Hetero, InfeasibleLoadReturnsBestEffort) {
  const HeteroProvisioner solver(two_class_config());
  const HeteroOperatingPoint point = solver.solve(1000.0);
  EXPECT_FALSE(point.feasible);
  EXPECT_EQ(total_active(point), 16u);
}

TEST(Hetero, EvaluateCountsRejectsOverCommit) {
  const HeteroProvisioner solver(two_class_config());
  EXPECT_DEATH((void)solver.evaluate_counts(10.0, {9, 0}), "count > class size");
  EXPECT_DEATH((void)solver.evaluate_counts(10.0, {1}), "counts size");
}

TEST(Hetero, EvaluateCountsInfeasibleWhenUndersized) {
  const HeteroProvisioner solver(two_class_config());
  // 1 new server carries at most 10 jobs/s under the SLA.
  EXPECT_FALSE(solver.evaluate_counts(50.0, {1, 0}).has_value());
  EXPECT_TRUE(solver.evaluate_counts(9.0, {1, 0}).has_value());
}

TEST(Hetero, GreedyMatchesBruteForceOnSmallThreeClassInstances) {
  HeteroConfig config;
  config.t_ref_s = 0.5;
  config.classes.push_back(make_class("a", 4, 12.0, 100.0, 200.0));
  config.classes.push_back(make_class("b", 4, 10.0, 150.0, 250.0));
  config.classes.push_back(make_class("c", 4, 8.0, 60.0, 120.0));
  const HeteroProvisioner solver(config);

  for (double lambda : {5.0, 20.0, 45.0, 70.0, 95.0}) {
    const HeteroOperatingPoint greedy = solver.solve(lambda);
    // Brute force every count vector.
    double best = std::numeric_limits<double>::infinity();
    for (unsigned a = 0; a <= 4; ++a) {
      for (unsigned b = 0; b <= 4; ++b) {
        for (unsigned c = 0; c <= 4; ++c) {
          const auto point = solver.evaluate_counts(lambda, {a, b, c});
          if (point) best = std::min(best, point->power_watts);
        }
      }
    }
    ASSERT_TRUE(greedy.feasible) << lambda;
    ASSERT_TRUE(std::isfinite(best)) << lambda;
    // The greedy descent is a heuristic for >= 3 classes; accept a small
    // optimality gap but fail loudly if it degrades.
    EXPECT_LE(greedy.power_watts, best * 1.05 + 1e-6) << lambda;
    EXPECT_GE(greedy.power_watts, best - 1e-6) << lambda;
  }
}

TEST(Hetero, GatedPowerRoutesToLowestMarginalCostFirst) {
  // With utilization-gated power the split cost is affine in the routed
  // load; the class with the smaller dynamic slope must fill first.
  HeteroConfig config;
  config.t_ref_s = 0.5;
  ServerClass cheap = make_class("cheap", 4, 10.0, 150.0, 200.0);   // dyn 50 W
  ServerClass pricey = make_class("pricey", 4, 10.0, 150.0, 450.0); // dyn 300 W
  cheap.power.utilization_gated = true;
  pricey.power.utilization_gated = true;
  config.classes.push_back(cheap);
  config.classes.push_back(pricey);
  const HeteroProvisioner solver(config);
  // Both classes must be active (load above one class's capacity), so the
  // split choice is visible.
  const auto point = solver.evaluate_counts(50.0, {4, 4});
  ASSERT_TRUE(point.has_value());
  EXPECT_GT(point->allocations[0].load, point->allocations[1].load);
  // The cheap class is filled to capacity (4 * 8 = 32 jobs/s) first.
  EXPECT_NEAR(point->allocations[0].load, 32.0, 1e-6);
  EXPECT_NEAR(point->allocations[1].load, 18.0, 1e-6);
}

TEST(Hetero, ContinuousLadderClassIsRejected) {
  HeteroConfig config;
  config.t_ref_s = 0.5;
  ServerClass sc = make_class("c", 4, 10.0);
  sc.ladder = FrequencyLadder::continuous(0.1);
  config.classes.push_back(sc);
  const HeteroProvisioner solver(config);
  EXPECT_DEATH((void)solver.solve(10.0), "discrete");
}

TEST(Hetero, MixedGatingModelsCoexist) {
  HeteroConfig config;
  config.t_ref_s = 0.5;
  ServerClass gated = make_class("gated", 4, 10.0);
  gated.power.utilization_gated = true;
  config.classes.push_back(gated);
  config.classes.push_back(make_class("ungated", 4, 10.0));
  const HeteroProvisioner solver(config);
  const HeteroOperatingPoint point = solver.solve(40.0);
  ASSERT_TRUE(point.feasible);
  EXPECT_NEAR(point.allocations[0].load + point.allocations[1].load, 40.0, 1e-6);
}

TEST(Hetero, ZeroLoadCanPowerEverythingDown) {
  const HeteroProvisioner solver(two_class_config());
  const HeteroOperatingPoint point = solver.solve(0.0);
  ASSERT_TRUE(point.feasible);
  EXPECT_EQ(total_active(point), 0u);
  // Only the off draw remains: 16 * 5 W.
  EXPECT_NEAR(point.power_watts, 16.0 * 5.0, 1e-9);
}

}  // namespace
}  // namespace gc
