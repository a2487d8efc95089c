// Heterogeneous-cluster provisioning — the natural extension of the
// paper's homogeneous model to a fleet of mixed server generations.
//
// The cluster consists of a few *classes*; class c has N_c identical
// servers with full-speed service rate μ_c, its own power curve and its
// own frequency ladder.  The joint problem becomes: pick per-class active
// counts n_c, speeds s_c, and a load split x_c (Σ x_c = λ) minimizing
// total power subject to the per-class mean-response-time guarantee
// T_c <= t_ref (which implies the overall mean meets t_ref for any split).
//
// Structure exploited:
//   * for fixed (n, x) each class behaves exactly like the homogeneous
//     problem, so s_c = s_min(x_c / n_c) as before (power increasing in s);
//   * for fixed counts, total power is convex in the split x (sum of
//     per-class convex functions of x_c), so the 2-class split reduces to
//     a 1-D golden-section search and k classes to a recursive split;
//   * counts are enumerated exactly for 2 classes (N_1 × N_2 pairs are
//     tiny at data-center-pod scale) and greedily refined for k > 2.
//
// The homogeneous Provisioner remains the fast path; HeteroProvisioner
// reduces to it bit-for-bit when all classes are identical
// (tests/test_hetero.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cluster_config.h"
#include "core/provisioner.h"

namespace gc {

struct ServerClass {
  std::string name = "class";
  unsigned count = 0;           // N_c
  double mu_max = 40.0;         // jobs/s at s = 1
  PowerModelParams power = {};
  FrequencyLadder ladder = FrequencyLadder::default_ladder();
};

struct HeteroConfig {
  std::vector<ServerClass> classes;
  double t_ref_s = 0.10;

  void validate() const;
  [[nodiscard]] unsigned total_servers() const noexcept;
  // Σ_c N_c (μ_c − 1/t_ref)+ — the SLA-feasible ceiling.
  [[nodiscard]] double max_feasible_arrival_rate() const;
};

// One class's share of a heterogeneous operating point.
struct ClassAllocation {
  unsigned servers = 0;   // n_c
  double speed = 1.0;     // s_c
  double load = 0.0;      // x_c (jobs/s routed to the class)
  double power_watts = 0.0;  // class total incl. its off servers
  double response_time_s = 0.0;
};

struct HeteroOperatingPoint {
  std::vector<ClassAllocation> allocations;
  double power_watts = 0.0;  // cluster total
  bool feasible = false;
};

class HeteroProvisioner {
 public:
  explicit HeteroProvisioner(HeteroConfig config);

  [[nodiscard]] const HeteroConfig& config() const noexcept { return config_; }

  // Minimal-power allocation serving `lambda` under the SLA.  When the
  // load is infeasible, returns everything-on-at-full-speed with
  // feasible = false (best effort), mirroring Provisioner::solve.
  [[nodiscard]] HeteroOperatingPoint solve(double lambda) const;

  // Cost of a *given* count vector with the split optimized (exposed for
  // tests and for the greedy refinement): nullopt if the counts cannot
  // carry `lambda`.
  [[nodiscard]] std::optional<HeteroOperatingPoint> evaluate_counts(
      double lambda, const std::vector<unsigned>& counts) const;

 private:
  // Cheapest power for class c carrying `load` on `n` servers (speed
  // rounded up on the class ladder); nullopt if infeasible.
  [[nodiscard]] std::optional<ClassAllocation> class_allocation(std::size_t c,
                                                                unsigned n,
                                                                double load) const;

  [[nodiscard]] HeteroOperatingPoint best_effort(double lambda) const;

  // Optimal split of `lambda` across the first `k` classes given counts;
  // recursive golden-section on the convex per-class costs.
  [[nodiscard]] std::optional<double> split_cost(double lambda,
                                                 const std::vector<unsigned>& counts,
                                                 std::vector<double>* loads) const;

  HeteroConfig config_;
  std::vector<PowerModel> power_models_;
};

}  // namespace gc
