// M/G/1 Pollaczek–Khinchine results: the closed-form oracle the simulator
// is validated against for deterministic and bounded-Pareto job sizes
// (test_simulation_validation), where the M/M/1 design model no longer
// applies.
#pragma once

namespace gc {
namespace mg1 {

// `scv` is the squared coefficient of variation of service time
// (Var/mean^2): 0 deterministic, 1 exponential, >1 heavy-tailed.
// Mean waiting time Wq = ρ/(1-ρ) · (1+scv)/2 · E[S].
[[nodiscard]] double mean_waiting_time(double lambda, double mean_service, double scv);

// Mean response time T = Wq + E[S].
[[nodiscard]] double mean_response_time(double lambda, double mean_service, double scv);

// Mean number in system via Little's law.
[[nodiscard]] double mean_number_in_system(double lambda, double mean_service, double scv);

}  // namespace mg1
}  // namespace gc
