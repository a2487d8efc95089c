#include "exp/hetero_sim.h"

#include <algorithm>
#include <cmath>

#include "control/policies.h"
#include "power/power_model.h"
#include "sim/simulation.h"
#include "stats/rng.h"
#include "util/assert.h"
#include "workload/workload.h"

namespace gc {

HeteroSimResult run_hetero_validation(const HeteroConfig& config,
                                      const HeteroOperatingPoint& point, double lambda,
                                      double horizon_s, double warmup_s,
                                      std::uint64_t seed) {
  config.validate();
  GC_CHECK(point.allocations.size() == config.classes.size(),
           "run_hetero_validation: point/config class mismatch");
  GC_CHECK(point.feasible, "run_hetero_validation: infeasible operating point");
  GC_CHECK(lambda > 0.0 && horizon_s > 0.0 && warmup_s >= 0.0,
           "run_hetero_validation: bad parameters");
  double split = 0.0;
  for (const ClassAllocation& alloc : point.allocations) split += alloc.load;
  GC_CHECK(std::abs(split - lambda) <= 1e-6 * std::max(lambda, 1.0),
           "run_hetero_validation: split does not sum to lambda");

  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = warmup_s;

  HeteroSimResult result;
  double weighted_response = 0.0;
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    const ServerClass& sc = config.classes[c];
    const ClassAllocation& alloc = point.allocations[c];
    HeteroClassResult cls;
    cls.predicted_response_s = alloc.response_time_s;
    cls.predicted_power_w = alloc.power_watts;
    if (alloc.servers == 0) {
      GC_CHECK(alloc.load == 0.0, "run_hetero_validation: load on a class with no server");
      // No job is routed here: the class's servers stay OFF all run.
      cls.mean_power_w = static_cast<double>(sc.count) * PowerModel(sc.power).off_power();
    } else {
      // Class c's own seeds: its arrival, size and dispatch streams are
      // independent of every other class's.
      const std::uint64_t class_seed = Rng(seed, /*stream=*/c)();
      Workload workload =
          Workload::poisson_exponential(alloc.load, sc.mu_max, horizon_s, class_seed);
      ClusterOptions cluster;
      cluster.num_servers = sc.count;
      cluster.power = sc.power;
      cluster.dispatch = DispatchPolicy::kRandom;
      cluster.initial_active = alloc.servers;
      cluster.initial_speed = alloc.speed;
      cluster.dispatch_seed = class_seed;
      PinnedController controller(alloc.servers, alloc.speed);
      const SimResult run = run_simulation(workload, cluster, controller, sim);
      cls.completed = run.completed_jobs;
      cls.mean_response_s = run.mean_response_s;
      cls.mean_power_w = run.mean_power_w;
      result.dropped += run.dropped_jobs;
    }
    result.completed += cls.completed;
    weighted_response += static_cast<double>(cls.completed) * cls.mean_response_s;
    result.mean_power_w += cls.mean_power_w;
    result.classes.push_back(cls);
  }
  if (result.completed > 0) {
    result.mean_response_s = weighted_response / static_cast<double>(result.completed);
  }
  return result;
}

}  // namespace gc
