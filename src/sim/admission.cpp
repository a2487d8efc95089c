#include "sim/admission.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.h"

namespace gc {

void AdmissionOptions::validate() const {
  if (!enabled) return;
  if (!(mu_max > 0.0) || !std::isfinite(mu_max)) {
    throw std::invalid_argument("AdmissionOptions: mu_max must be finite and > 0");
  }
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         double t_ref_s, Rng rng)
    : options_(options), t_ref_s_(t_ref_s), rng_(rng) {
  options_.validate();
  GC_CHECK(t_ref_s > 0.0, "AdmissionController: t_ref must be positive");
}

void AdmissionController::update(double measured_rate, unsigned serving,
                                 double speed) {
  if (!options_.enabled) return;
  const double per_server =
      std::max(speed * options_.mu_max - 1.0 / t_ref_s_, 0.0);
  const double admittable = static_cast<double>(serving) * per_server;
  if (measured_rate <= admittable || measured_rate <= 0.0) {
    p_admit_ = 1.0;
  } else {
    p_admit_ = admittable / measured_rate;
  }
}

bool AdmissionController::admit() {
  if (!options_.enabled || p_admit_ >= 1.0) return true;
  if (rng_.uniform01() < p_admit_) return true;
  ++shed_;
  return false;
}

}  // namespace gc
