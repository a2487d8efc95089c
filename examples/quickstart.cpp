// Quickstart: size a cluster with the joint DVFS+VOVF solver, then verify
// the chosen operating point in simulation.
//
//   $ ./quickstart [arrival_rate]
//
// Walks through the core API: ClusterConfig -> Provisioner::solve ->
// run_simulation with a PinnedController at the solved point.
#include <cstdlib>
#include <iostream>

#include "control/policies.h"
#include "core/provisioner.h"
#include "sim/simulation.h"
#include "util/format.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  // 1. Describe the cluster: 32 servers, 20 jobs/s each at full speed,
  //    and a 250 ms mean-response-time guarantee.
  gc::ClusterConfig config;
  config.max_servers = 32;
  config.mu_max = 20.0;
  config.t_ref_s = 0.25;

  const double lambda = argc > 1 ? std::atof(argv[1]) : 180.0;

  // 2. Solve for the cheapest (servers, frequency) pair.
  const gc::Provisioner solver(config);
  const gc::OperatingPoint point = solver.solve(lambda);
  std::cout << gc::format(
      "load {:g} jobs/s -> run {} servers at {:.0f}% speed\n"
      "  predicted power:    {:.0f} W (cluster)\n"
      "  predicted response: {:.1f} ms (guarantee {:.0f} ms)\n",
      lambda, point.servers, point.speed * 100.0, point.power_watts,
      point.response_time_s * 1e3, config.t_ref_s * 1e3);
  if (!point.feasible) {
    std::cout << "load exceeds cluster feasibility; best effort shown\n";
    return 1;
  }

  // 3. Check the math against the discrete-event simulator.
  gc::Workload workload =
      gc::Workload::poisson_exponential(lambda, config.mu_max, 2000.0, /*seed=*/1);
  gc::ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.initial_active = config.max_servers;
  gc::PinnedController controller(point.servers, point.speed);
  gc::SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = 200.0;
  const gc::SimResult result = gc::run_simulation(workload, cluster, controller, sim);

  std::cout << gc::format(
      "simulated: {} jobs, mean response {:.1f} ms (p95 {:.1f} ms), mean power {:.0f} W\n",
      result.completed_jobs, result.mean_response_s * 1e3, result.p95_response_s * 1e3,
      result.mean_power_w);
  std::cout << (result.sla_met(config.t_ref_s) ? "SLA met.\n" : "SLA MISSED!\n");
  return result.sla_met(config.t_ref_s) ? 0 : 1;
}
