#include "exp/runner.h"

#include "util/assert.h"
#include "util/thread_pool.h"

namespace gc {

SimulationOptions RunSpec::effective_sim_options() const {
  SimulationOptions options = sim;
  options.t_ref_s = config.t_ref_s;
  if (options.warmup_s == 0.0) {
    options.warmup_s = 2.0 * policy_options.dcp.long_period_s;
  }
  return options;
}

SimResult run_one(const Scenario& scenario, const RunSpec& spec) {
  spec.config.validate();
  Provisioner provisioner(spec.config);
  const auto controller =
      spec.policy == PolicyKind::kOracle
          ? make_oracle_policy(&provisioner, spec.policy_options, scenario.profile)
          : make_policy(spec.policy, &provisioner, spec.policy_options);

  ClusterOptions cluster;
  cluster.num_servers = spec.config.max_servers;
  cluster.power = spec.config.power;
  cluster.transition = spec.config.transition;
  cluster.dispatch = spec.dispatch;
  cluster.initial_active = spec.config.max_servers;  // all on; warmup settles it
  cluster.initial_speed = 1.0;
  cluster.dispatch_seed = spec.seed ^ 0x9e3779b97f4a7c15ULL;

  Workload workload = spec.job_size
                          ? scenario.make_workload_sized(*spec.job_size, spec.seed)
                          : scenario.make_workload(spec.config, spec.seed);
  SimResult result =
      run_simulation(workload, cluster, *controller, spec.effective_sim_options());
  const SolverCacheStats& cache = provisioner.cache_stats();
  result.solver_cache_hits = cache.hits;
  result.solver_cache_misses = cache.misses;
  result.solver_cache_hit_rate = cache.hit_rate();
  // Fold the solver-side counters into the run's snapshot so one JSON dump
  // carries the whole observability picture (DESIGN.md §7).
  result.counters.add_counter("solver.cache.hits", cache.hits);
  result.counters.add_counter("solver.cache.misses", cache.misses);
  result.counters.add_gauge("solver.cache.hit_rate", cache.hit_rate());
  return result;
}

std::vector<SimResult> run_all(const std::vector<Cell>& cells) {
  std::vector<SimResult> results(cells.size());
  global_pool().parallel_for_index(cells.size(), [&](std::size_t i) {
    results[i] = run_one(cells[i].scenario, cells[i].spec);
  });
  return results;
}

std::vector<SimResult> run_replicated(const Scenario& scenario, const RunSpec& spec,
                                      unsigned n) {
  GC_CHECK(n > 0, "run_replicated: need at least one replication");
  std::vector<Cell> cells;
  cells.reserve(n);
  for (unsigned r = 0; r < n; ++r) {
    Cell cell{scenario, spec};
    cell.spec.seed = spec.seed + 1000003ULL * (r + 1);
    cells.push_back(std::move(cell));
  }
  return run_all(cells);
}

}  // namespace gc
