// Reliability model tests (core/reliability.h + Provisioner::solve_reliable):
//
//   * property tests for the closed-form fleet-availability estimator
//     (edges, monotonicity, agreement with the direct binomial sum),
//   * the availability estimator validated against long fault-injected
//     simulation runs across three MTBF/MTTR regimes and 0-2 spares,
//   * wear-model arithmetic incl. per-class budgets,
//   * solve_reliable: degeneration to solve_capped when disabled, spare
//     solving under an availability target, the wear-cost deadband, and the
//     memo cache's exact-hit / knob-generation contract,
//   * end-to-end instrumentation: fleet.boot_count / fleet.shutdown_count
//     observable with reliability off, per-server cycle counters, and the
//     dcp-reliability policy's SimResult readout.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>

#include "control/policies.h"
#include "core/provisioner.h"
#include "core/reliability.h"
#include "sim/simulation.h"
#include "workload/rate_profile.h"
#include "workload/workload.h"

namespace gc {
namespace {

// -- closed-form availability: properties ------------------------------------

double n_choose_k(unsigned n, unsigned k) {
  double c = 1.0;
  for (unsigned i = 0; i < k; ++i) {
    c *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return c;
}

// Direct binomial tail sum — the textbook form the recurrence must match.
double direct_availability(unsigned required, unsigned spares, double a) {
  const unsigned n = required + spares;
  double sum = 0.0;
  for (unsigned j = required; j <= n; ++j) {
    sum += n_choose_k(n, j) * std::pow(a, static_cast<double>(j)) *
           std::pow(1.0 - a, static_cast<double>(n - j));
  }
  return sum;
}

TEST(FleetAvailability, BoundaryCases) {
  // Nothing required: always up, whatever the server availability.
  EXPECT_DOUBLE_EQ(fleet_availability(0, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet_availability(0, 5, 0.3), 1.0);
  // Perfect servers: always up.
  EXPECT_DOUBLE_EQ(fleet_availability(8, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet_availability(8, 3, 1.5), 1.0);
  // Dead servers: never up (unless nothing is required).
  EXPECT_DOUBLE_EQ(fleet_availability(1, 4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fleet_availability(3, 0, -0.2), 0.0);
}

TEST(FleetAvailability, NoSparesIsAToTheM) {
  for (const double a : {0.5, 0.9, 0.99, 0.999}) {
    for (unsigned m = 1; m <= 12; ++m) {
      EXPECT_NEAR(fleet_availability(m, 0, a),
                  std::pow(a, static_cast<double>(m)), 1e-12)
          << "a=" << a << " m=" << m;
    }
  }
}

TEST(FleetAvailability, RecurrenceMatchesDirectBinomialSum) {
  for (const double a : {0.3, 0.5, 0.8, 0.95, 0.999}) {
    for (unsigned required = 1; required <= 10; ++required) {
      for (unsigned spares = 0; spares <= 6; ++spares) {
        EXPECT_NEAR(fleet_availability(required, spares, a),
                    direct_availability(required, spares, a), 1e-10)
            << "a=" << a << " m=" << required << " k=" << spares;
      }
    }
  }
}

TEST(FleetAvailability, MonotoneInSparesAndServerAvailability) {
  for (unsigned required : {1u, 4u, 16u, 64u}) {
    double prev = 0.0;
    for (unsigned k = 0; k <= 10; ++k) {
      const double avail = fleet_availability(required, k, 0.9);
      EXPECT_GE(avail, prev) << "m=" << required << " k=" << k;
      EXPECT_LE(avail, 1.0);
      prev = avail;
    }
  }
  double prev = 0.0;
  for (double a = 0.05; a < 1.0; a += 0.05) {
    const double avail = fleet_availability(6, 2, a);
    EXPECT_GE(avail, prev) << "a=" << a;
    prev = avail;
  }
}

TEST(FleetAvailability, LargeFleetsStayFiniteAndOrdered) {
  // The downward recurrence never touches factorials: a 10k-server pool is
  // exact arithmetic, not overflow.  With a = 0.999 the fleet expects ~10
  // failures, so 5 spares are thin and 10 are ~even odds — both strictly
  // inside (0, 1) and strictly ordered.
  const double thin = fleet_availability(10000, 5, 0.999);
  const double even = fleet_availability(10000, 10, 0.999);
  EXPECT_TRUE(std::isfinite(thin));
  EXPECT_GT(thin, 0.0);
  EXPECT_LT(thin, 0.2);
  EXPECT_GT(even, thin);
  EXPECT_LT(even, 1.0);
  EXPECT_NEAR(fleet_availability(10000, 200, 0.999), 1.0, 1e-12);
}

TEST(MinSparesFor, FindsTheMinimalPool) {
  const double a = 0.9;
  for (unsigned required : {1u, 4u, 8u}) {
    for (const double target : {0.9, 0.99, 0.999}) {
      const auto k = min_spares_for(required, a, target, 32);
      ASSERT_TRUE(k.has_value()) << "m=" << required << " target=" << target;
      EXPECT_GE(fleet_availability(required, *k, a), target);
      if (*k > 0) {
        EXPECT_LT(fleet_availability(required, *k - 1, a), target)
            << "k=" << *k << " is not minimal";
      }
    }
  }
}

TEST(MinSparesFor, UnreachableTargetIsNullopt) {
  // a = 0.5 over 8 required servers: even 2 spares give A ~= 0.05.
  EXPECT_FALSE(min_spares_for(8, 0.5, 0.999, 2).has_value());
  // Zero spares allowed and a^m below the target.
  EXPECT_FALSE(min_spares_for(8, 0.9, 0.9, 0).has_value());
  // A perfect server always reaches any target with zero spares.
  const auto k = min_spares_for(8, 1.0, 0.999999, 0);
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(*k, 0u);
}

TEST(MinSparesFor, MonotoneInTarget) {
  unsigned prev = 0;
  for (const double target : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const auto k = min_spares_for(6, 0.95, target, 64);
    ASSERT_TRUE(k.has_value());
    EXPECT_GE(*k, prev) << "target=" << target;
    prev = *k;
  }
}

// -- wear model ---------------------------------------------------------------

TEST(WearModel, DisabledModelChargesNothing) {
  const WearModel wear{ReliabilityOptions{}};
  EXPECT_FALSE(wear.enabled());
  EXPECT_DOUBLE_EQ(wear.wear_fraction(1000, 1000), 0.0);
  EXPECT_DOUBLE_EQ(wear.transition_cost_j(5), 0.0);
}

TEST(WearModel, HalfACyclePerTransition) {
  ReliabilityOptions options;
  options.cycles_to_failure = 1000.0;
  options.cycle_cost_j = 200.0;
  const WearModel wear(options);
  EXPECT_TRUE(wear.enabled());
  // 300 boots + 300 shutdowns = 300 full cycles of a 1000-cycle budget.
  EXPECT_DOUBLE_EQ(wear.wear_fraction(300, 300), 0.3);
  // Uncapped past exhaustion — the readout reports the overdraft.
  EXPECT_DOUBLE_EQ(wear.wear_fraction(1500, 1500), 1.5);
  // Asymmetric counts still average to half a cycle per transition.
  EXPECT_DOUBLE_EQ(wear.wear_fraction(10, 0), 0.005);
  EXPECT_DOUBLE_EQ(wear.transition_cost_j(3), 300.0);
}

TEST(ReliabilityOptionsValidate, RejectsBadKnobs) {
  const auto expect_throws = [](auto&& mutate) {
    ReliabilityOptions options;
    mutate(options);
    EXPECT_THROW(options.validate(), std::invalid_argument);
  };
  expect_throws([](ReliabilityOptions& o) { o.mtbf_s = -1.0; });
  expect_throws([](ReliabilityOptions& o) { o.mtbf_s = std::nan(""); });
  expect_throws([](ReliabilityOptions& o) { o.mttr_s = -1.0; });
  expect_throws([](ReliabilityOptions& o) {
    o.mtbf_s = 100.0;
    o.mttr_s = 0.0;  // failure model with instant repairs is a contradiction
  });
  expect_throws([](ReliabilityOptions& o) { o.availability_target = 1.5; });
  expect_throws([](ReliabilityOptions& o) { o.availability_target = std::nan(""); });
  expect_throws([](ReliabilityOptions& o) { o.cycles_to_failure = -5.0; });
  expect_throws([](ReliabilityOptions& o) { o.cycle_cost_j = -5.0; });
  ReliabilityOptions ok;
  ok.mtbf_s = 1000.0;
  ok.mttr_s = 100.0;
  ok.availability_target = 0.999;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_NEAR(ok.server_availability(), 1000.0 / 1100.0, 1e-15);
}

// -- estimator vs fault-injected simulation (3 regimes x 0-2 spares) ---------

struct FaultRegime {
  const char* name;
  double mtbf_s;
  double mttr_s;
  std::uint64_t seed;
};

// Fraction of timeline samples with >= `required` servers healthy.  NPM
// keeps the whole 8-server fleet powered (re-booting repaired servers each
// long tick), so "available >= 8 - k" is exactly the event the closed form
// A(8 - k, k) prices: at most k of the 8 are down.
SimResult run_fault_regime(const FaultRegime& regime, double horizon_s) {
  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  config.transition.boot_delay_s = 2.0;
  const Provisioner provisioner(config);
  // Short long period: NPM re-boots repaired (OFF) servers on long ticks,
  // and a server sitting OFF has its failure clock stopped — the faster the
  // re-boot, the closer the simulated process is to the always-powered
  // Markov model the closed form prices.
  PolicyOptions popts;
  popts.dcp.long_period_s = 30.0;
  popts.dcp.short_period_s = 10.0;
  const auto controller = make_policy(PolicyKind::kNpm, &provisioner, popts);
  Workload workload =
      Workload::poisson_exponential(1.0, config.mu_max, horizon_s, regime.seed);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 11;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.faults.mtbf_s = regime.mtbf_s;
  sim.faults.mttr_s = regime.mttr_s;
  sim.faults.seed = regime.seed;
  sim.record_interval_s = 20.0;
  return run_simulation(workload, cluster, *controller, sim);
}

TEST(AvailabilityEstimator, MatchesFaultInjectedSimulation) {
  // Seed-pinned long runs; the tolerance bands absorb the two known gaps
  // between model and simulator: finite-sample noise (a few hundred
  // fail/repair cycles per run) and the injector's powered-only failure
  // clock (a repaired server sits OFF for up to one long tick before NPM
  // re-boots it, slightly inflating its effective MTBF).
  const FaultRegime regimes[] = {
      {"a=0.80", 2000.0, 500.0, 101},
      {"a=0.90", 4500.0, 500.0, 202},
      {"a=0.60", 1200.0, 800.0, 303},
  };
  const double horizon_s = 120000.0;
  for (const FaultRegime& regime : regimes) {
    const SimResult result = run_fault_regime(regime, horizon_s);
    const double a = regime.mtbf_s / (regime.mtbf_s + regime.mttr_s);
    // Per-server availability first: unavailability is the time-weighted
    // fleet-mean FAILED fraction, whose expectation is exactly 1 - a.
    EXPECT_NEAR(1.0 - result.unavailability, a, 0.05) << regime.name;
    ASSERT_FALSE(result.timeline.empty());
    for (unsigned spares = 0; spares <= 2; ++spares) {
      const unsigned required = 8 - spares;
      std::size_t up = 0;
      for (const TimelinePoint& point : result.timeline) {
        if (point.available >= required) ++up;
      }
      const double observed =
          static_cast<double>(up) / static_cast<double>(result.timeline.size());
      const double predicted = fleet_availability(required, spares, a);
      EXPECT_NEAR(observed, predicted, 0.08)
          << regime.name << " required=" << required << " spares=" << spares;
    }
  }
}

// -- solve_reliable -----------------------------------------------------------

ClusterConfig solver_config() {
  ClusterConfig config;
  config.max_servers = 16;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

TEST(SolveReliable, DefaultOptionsDegenerateToSolveCapped) {
  const Provisioner provisioner(solver_config());
  for (const double lambda : {3.0, 17.0, 42.0, 90.0}) {
    const OperatingPoint capped = provisioner.solve_capped(lambda, 16);
    const ReliablePlan plan =
        provisioner.solve_reliable(lambda, 16, 16, 25.0, ReliabilityOptions{});
    EXPECT_EQ(plan.base.servers, capped.servers) << "lambda=" << lambda;
    EXPECT_DOUBLE_EQ(plan.base.speed, capped.speed);
    EXPECT_DOUBLE_EQ(plan.base.power_watts, capped.power_watts);
    EXPECT_EQ(plan.base.feasible, capped.feasible);
    EXPECT_EQ(plan.spares, 0u);
    EXPECT_DOUBLE_EQ(plan.availability, 1.0);
    EXPECT_EQ(plan.binding, BindingConstraint::kLatency);
    EXPECT_DOUBLE_EQ(plan.objective_w, capped.power_watts);
  }
}

TEST(SolveReliable, AvailabilityTargetForcesSpares) {
  const Provisioner provisioner(solver_config());
  ReliabilityOptions reliability;
  reliability.mtbf_s = 900.0;  // a = 0.9: harsh enough to need real spares
  reliability.mttr_s = 100.0;
  reliability.availability_target = 0.999;
  const double lambda = 30.0;  // m_min ~ 4 servers
  const ReliablePlan plan =
      provisioner.solve_reliable(lambda, 16, 16, 25.0, reliability);
  EXPECT_TRUE(plan.base.feasible);
  EXPECT_GT(plan.spares, 0u);
  EXPECT_GE(plan.availability, reliability.availability_target);
  EXPECT_EQ(plan.binding, BindingConstraint::kAvailability);
  // The solved pool is minimal: one fewer spare would miss the target.
  EXPECT_LT(fleet_availability(plan.base.servers, plan.spares - 1,
                               reliability.server_availability()),
            reliability.availability_target);
  // Raising the target never shrinks the pool.
  ReliabilityOptions stricter = reliability;
  stricter.availability_target = 0.99999;
  const ReliablePlan strict_plan =
      provisioner.solve_reliable(lambda, 16, 16, 25.0, stricter);
  EXPECT_GE(strict_plan.spares, plan.spares);
}

TEST(SolveReliable, UnreachableTargetBindsAtCapacity) {
  const Provisioner provisioner(solver_config());
  ReliabilityOptions reliability;
  reliability.mtbf_s = 100.0;  // a = 0.5: 0.9999 is hopeless within the cap
  reliability.mttr_s = 100.0;
  reliability.availability_target = 0.9999;
  reliability.max_spares = 2;
  const ReliablePlan plan =
      provisioner.solve_reliable(60.0, 16, 16, 25.0, reliability);
  EXPECT_TRUE(plan.base.feasible);  // latency is still met
  EXPECT_EQ(plan.binding, BindingConstraint::kCapacity);
  EXPECT_LT(plan.availability, reliability.availability_target);
}

TEST(SolveReliable, LatencyInfeasibleLoadFallsBackToTheCap) {
  const Provisioner provisioner(solver_config());
  ReliabilityOptions reliability;
  reliability.mtbf_s = 10000.0;
  reliability.mttr_s = 100.0;
  reliability.availability_target = 0.999;
  // 16 servers serve at most 16 * (10 - 2) = 128/s; 200/s cannot be met.
  const ReliablePlan plan =
      provisioner.solve_reliable(200.0, 16, 16, 25.0, reliability);
  EXPECT_FALSE(plan.base.feasible);
  EXPECT_EQ(plan.base.servers, 16u);
  EXPECT_EQ(plan.spares, 0u);
  EXPECT_EQ(plan.binding, BindingConstraint::kCapacity);
}

TEST(SolveReliable, WearCostHoldsTheCommittedPool) {
  const Provisioner provisioner(solver_config());
  const double lambda = 10.0;  // energy-optimal base well below 8 servers
  const unsigned committed = 8;
  // Without wear cost the solver shrinks the pool to the energy optimum...
  ReliabilityOptions no_wear;
  const ReliablePlan cheap =
      provisioner.solve_reliable(lambda, 16, committed, 25.0, no_wear);
  EXPECT_LT(cheap.base.servers + cheap.spares, committed);
  // ...with a dominant cycle cost it keeps the committed 8 instead: the
  // wear deadband trades a little idle power for zero transitions.
  ReliabilityOptions heavy_wear;
  heavy_wear.cycles_to_failure = 1000.0;
  heavy_wear.cycle_cost_j = 1e9;
  const ReliablePlan sticky =
      provisioner.solve_reliable(lambda, 16, committed, 25.0, heavy_wear);
  EXPECT_TRUE(sticky.base.feasible);
  EXPECT_EQ(sticky.base.servers + sticky.spares, committed);
  // The wear term can only hold *feasible* pools: it never buys servers
  // below the latency floor.
  const ReliablePlan floor_plan =
      provisioner.solve_reliable(70.0, 16, 1, 25.0, heavy_wear);
  EXPECT_TRUE(floor_plan.base.feasible);
  EXPECT_GE(floor_plan.base.servers, 8u);  // 70/s needs >= 8.75 - 1/t_ref...
}

TEST(SolveReliable, CacheHitsAreExactAndKnobChangesPurge) {
  const Provisioner provisioner(solver_config());
  ReliabilityOptions reliability;
  reliability.mtbf_s = 2000.0;
  reliability.mttr_s = 200.0;
  reliability.availability_target = 0.999;
  const ReliablePlan first =
      provisioner.solve_reliable(30.0, 16, 12, 25.0, reliability);
  EXPECT_EQ(provisioner.cache_stats().misses, 1u);
  EXPECT_EQ(provisioner.cache_stats().hits, 0u);
  // Same inputs: exact hit, identical plan.
  const ReliablePlan again =
      provisioner.solve_reliable(30.0, 16, 12, 25.0, reliability);
  EXPECT_EQ(provisioner.cache_stats().hits, 1u);
  EXPECT_EQ(again.base.servers, first.base.servers);
  EXPECT_EQ(again.spares, first.spares);
  EXPECT_DOUBLE_EQ(again.objective_w, first.objective_w);
  // A different committed anchor is a different key, not a stale hit.
  (void)provisioner.solve_reliable(30.0, 16, 13, 25.0, reliability);
  EXPECT_EQ(provisioner.cache_stats().misses, 2u);
  // Changing a knob starts a new generation: the old entry must not serve.
  ReliabilityOptions stricter = reliability;
  stricter.availability_target = 0.99999;
  const ReliablePlan strict_plan =
      provisioner.solve_reliable(30.0, 16, 12, 25.0, stricter);
  EXPECT_EQ(provisioner.cache_stats().misses, 3u);
  EXPECT_GE(strict_plan.spares, first.spares);
  // And the plain OperatingPoint cache is untouched by reliable purges:
  // a solve() done before the knob change still hits after it.
  (void)provisioner.solve(30.0);
  const std::uint64_t hits_before = provisioner.cache_stats().hits;
  (void)provisioner.solve_reliable(30.0, 16, 12, 25.0, reliability);  // purge
  (void)provisioner.solve(30.0);
  EXPECT_EQ(provisioner.cache_stats().hits, hits_before + 1);
}

// -- end-to-end instrumentation ----------------------------------------------

SimResult run_policy(PolicyKind kind, PolicyOptions popts, SimulationOptions sim,
                     double horizon_s) {
  ClusterConfig config;
  config.max_servers = 12;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  const Provisioner provisioner(config);
  // Ten long ticks per 1200 s diurnal period so provisioning actually
  // tracks the load curve within the test horizon.
  popts.dcp.long_period_s = 120.0;
  popts.dcp.short_period_s = 20.0;
  const auto controller = make_policy(kind, &provisioner, popts);
  const auto profile =
      std::make_shared<SinusoidalRate>(40.0, 25.0, 1200.0, 0.0, 5.0);
  Workload workload =
      Workload::profile_exponential(profile, config.mu_max, horizon_s, 97);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 4242;
  sim.t_ref_s = config.t_ref_s;
  return run_simulation(workload, cluster, *controller, sim);
}

TEST(ReliabilityInstrumentation, TransitionCountersExistWithReliabilityOff) {
  // Satellite contract: fleet.boot_count / fleet.shutdown_count are plain
  // observability — registered on every run, no reliability policy needed.
  const SimResult result =
      run_policy(PolicyKind::kCombinedDcp, {}, SimulationOptions{}, 4800.0);
  const std::uint64_t boots = result.counters.counter_or("fleet.boot_count", 0);
  const std::uint64_t shutdowns =
      result.counters.counter_or("fleet.shutdown_count", 0);
  EXPECT_GT(boots + shutdowns, 0u);  // diurnal load cycles the fleet
  // Per-server cycle counters tile the fleet totals exactly.
  ASSERT_EQ(result.server_cycles.size(), 12u);
  std::uint64_t cycle_sum = 0;
  for (const std::uint32_t cycles : result.server_cycles) cycle_sum += cycles;
  EXPECT_EQ(cycle_sum, boots + shutdowns);
  // Wear scalars stay zero without a cycles-to-failure budget...
  EXPECT_DOUBLE_EQ(result.wear_fraction_mean, 0.0);
  EXPECT_DOUBLE_EQ(result.wear_fraction_max, 0.0);
  // ...and no policy reported an availability plan.
  EXPECT_DOUBLE_EQ(result.availability_estimate, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_solved_spares, 0.0);
}

TEST(ReliabilityInstrumentation, DcpReliabilityReportsPlanAndWear) {
  PolicyOptions popts;
  // a = 0.98: the 0.995 target is reachable with the spare room a 12-cap
  // fleet leaves even at the diurnal peak (m ~ 10, k = 2).
  popts.reliability.mtbf_s = 4900.0;
  popts.reliability.mttr_s = 100.0;
  popts.reliability.availability_target = 0.995;
  popts.reliability.cycles_to_failure = 5000.0;
  popts.reliability.cycle_cost_j = 100.0;
  SimulationOptions sim;
  sim.faults.mtbf_s = 4900.0;
  sim.faults.mttr_s = 100.0;
  sim.faults.seed = 7;
  sim.reliability = popts.reliability;  // readout uses the same wear budget
  const SimResult result =
      run_policy(PolicyKind::kDcpReliability, popts, sim, 4800.0);
  EXPECT_GT(result.completed_jobs, 10000u);
  // The controller reported its solved plan on every long tick.  The mean sits
  // just below the 0.995 target because a few peak-load ticks bind at the
  // 12-server cap and plan with fewer spares than the target wants.
  EXPECT_GT(result.availability_estimate, 0.97);
  EXPECT_LE(result.availability_estimate, 1.0);
  EXPECT_GT(result.mean_solved_spares, 0.0);
  // Wear accounting is live: the diurnal fleet cycled at least once.
  EXPECT_GT(result.wear_fraction_max, 0.0);
  EXPECT_GE(result.wear_fraction_max, result.wear_fraction_mean);
  // And the run exposes the reliability gauges for gcinspect / Prometheus.
  EXPECT_GT(result.counters.gauge_or("reliability.availability_estimate", 0.0), 0.97);
  EXPECT_GT(result.counters.gauge_or("fleet.wear_fraction_max", 0.0), 0.0);
  EXPECT_GT(result.counters.gauge_or("fleet.availability_observed", 0.0), 0.5);
}

TEST(ReliabilityInstrumentation, WearCostCutsTransitionsAtEqualSla) {
  // The tentpole claim in miniature (fig16 runs the full sweep): same
  // availability target, same faults — pricing transitions into the
  // objective must cut on/off cycling sharply without giving up the SLA.
  PolicyOptions naive;
  naive.reliability.mtbf_s = 4000.0;
  naive.reliability.mttr_s = 400.0;
  naive.reliability.availability_target = 0.99;
  naive.reliability.cycles_to_failure = 10000.0;
  naive.reliability.cycle_cost_j = 0.0;  // transitions are free
  PolicyOptions wear_aware = naive;
  // Amortized over the 120 s long period this charges ~800 W per server
  // moved — decisively above the idle power a held server costs, so the
  // solver freezes the pool instead of chasing the diurnal trough.
  wear_aware.reliability.cycle_cost_j = 200000.0;
  SimulationOptions sim;
  sim.faults.mtbf_s = 4000.0;
  sim.faults.mttr_s = 400.0;
  sim.faults.seed = 13;
  const SimResult cycling =
      run_policy(PolicyKind::kDcpReliability, naive, sim, 7200.0);
  const SimResult sticky =
      run_policy(PolicyKind::kDcpReliability, wear_aware, sim, 7200.0);
  const std::uint64_t cycling_transitions = cycling.boots + cycling.shutdowns;
  const std::uint64_t sticky_transitions = sticky.boots + sticky.shutdowns;
  EXPECT_LT(sticky_transitions * 2, cycling_transitions)
      << "wear-aware " << sticky_transitions << " vs naive "
      << cycling_transitions;
  // Equal-or-better SLA: both meet the mean-response guarantee.
  EXPECT_LE(cycling.mean_response_s, 0.5);
  EXPECT_LE(sticky.mean_response_s, 0.5);
}

}  // namespace
}  // namespace gc
