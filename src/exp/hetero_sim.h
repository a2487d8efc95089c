// Simulation validation for the heterogeneous provisioner.
//
// Pins a HeteroOperatingPoint — per-class counts and speeds, load split at
// random in proportion to the per-class loads x_c — and measures what the
// solver only predicted: per-class mean response time and cluster power.
// A random split of Poisson(λ) arrivals gives every class an independent
// Poisson(x_c) stream, and a class-c server is an exact M/M/1 with rate
// x_c / n_c, matching the solver's model.  So each active class runs on
// its own as a homogeneous run_simulation (sim/simulation.h): n_c servers
// at speed s_c, random dispatch, exp(μ_c) job sizes, its own seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hetero.h"

namespace gc {

struct HeteroClassResult {
  std::uint64_t completed = 0;
  double mean_response_s = 0.0;
  double predicted_response_s = 0.0;
  double mean_power_w = 0.0;      // measured, including the class's off servers
  double predicted_power_w = 0.0;
};

struct HeteroSimResult {
  std::vector<HeteroClassResult> classes;
  double mean_response_s = 0.0;   // overall, completion-weighted
  double mean_power_w = 0.0;      // cluster: the sum of the class powers
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
};

// Offers Poisson(λ) arrivals up to absolute time `horizon_s` (the first
// `warmup_s` of it included, and excluded from every measurement) to the
// pinned operating point; each class runs until its last job departs.
// `point` must be a feasible solve(λ) result for `config`.
[[nodiscard]] HeteroSimResult run_hetero_validation(const HeteroConfig& config,
                                                    const HeteroOperatingPoint& point,
                                                    double lambda, double horizon_s,
                                                    double warmup_s, std::uint64_t seed);

}  // namespace gc
