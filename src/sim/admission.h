// Admission control for graceful degradation under capacity shortfall.
//
// When failures (or an infeasible offered load) leave the cluster unable to
// meet the mean-response-time guarantee T_ref, running every arrival just
// pushes *all* response times past the SLA.  Probabilistic shedding instead
// thins the admitted stream to the largest rate the surviving capacity can
// serve within T_ref, keeping admitted jobs fast at the cost of an explicit,
// metered shed fraction.
//
// Per M/M/1 with service rate s*mu per server, the largest per-server
// arrival rate meeting E[T] = 1/(s*mu - lambda) <= T_ref is
// s*mu - 1/T_ref, so the cluster-wide admittable rate is
//
//   lambda_adm = serving * max(s * mu_max - 1/T_ref, 0)
//
// and each arrival is admitted with probability
// p = min(1, lambda_adm / measured_rate).  Poisson thinning keeps the
// admitted stream Poisson, so the M/M/1 bound genuinely holds for it.
//
// Determinism: shedding draws from its own RNG stream, and draws *only*
// when p < 1, so runs that never shed are event-for-event identical to runs
// with admission control disabled.
#pragma once

#include <cstdint>

#include "stats/rng.h"

namespace gc {

struct AdmissionOptions {
  bool enabled = false;
  // Full-speed service rate of one server (jobs/s); must be set when
  // enabled (the sim layer cannot see the solver's ClusterConfig).
  double mu_max = 0.0;

  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

class AdmissionController {
 public:
  AdmissionController(const AdmissionOptions& options, double t_ref_s, Rng rng);

  // Recomputes the admit probability from the current capacity; call on
  // every control tick (capacity or load estimate changed).
  void update(double measured_rate, unsigned serving, double speed);

  // Per-arrival draw: true = admit, false = shed (counted).
  [[nodiscard]] bool admit();

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
  [[nodiscard]] double admit_probability() const noexcept { return p_admit_; }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }

 private:
  AdmissionOptions options_;
  double t_ref_s_;
  Rng rng_;
  double p_admit_ = 1.0;
  std::uint64_t shed_ = 0;
};

}  // namespace gc
