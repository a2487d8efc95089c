// Power-capped operation — the dual of the energy-minimization problem.
//
// The paper promises "controllable and predictable quantitative control of
// power consumption".  Provisioner::solve answers "cheapest power for a
// load"; this module answers the converse questions an operator with a
// power budget (rack breaker, brownout response, carbon cap) asks:
//
//   * max_supportable_rate(cap)  — the largest arrival rate whose optimal
//     operating point fits under `cap` watts while still meeting t_ref
//     (monotone in cap; solved by bisection against the exact solver);
//   * best_point_under_cap(λ, cap) — the operating point that *minimizes
//     mean response time* subject to cluster power <= cap.  For a fixed m,
//     response is decreasing in s and power increasing, so the best s is
//     the largest affordable level; the outer loop over m is exact.
#pragma once

#include <optional>

#include "core/operating_point.h"
#include "core/provisioner.h"

namespace gc {

class PowerCapSolver {
 public:
  // `provisioner` must outlive the solver.
  explicit PowerCapSolver(const Provisioner* provisioner);

  // Largest λ such that solve(λ) is feasible and fits under `cap_watts`.
  // Returns 0 if even an idle minimal cluster exceeds the cap.
  [[nodiscard]] double max_supportable_rate(double cap_watts) const;

  // Response-time-optimal point with power <= cap.  nullopt when no
  // SLA-feasible point fits under the cap (the load must be shed instead).
  [[nodiscard]] std::optional<OperatingPoint> best_point_under_cap(
      double lambda, double cap_watts) const;

 private:
  const Provisioner* provisioner_;  // non-owning
};

}  // namespace gc
