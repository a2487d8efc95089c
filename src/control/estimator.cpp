#include "control/estimator.h"

#include <cmath>
#include <stdexcept>

#include "cp/snapshot.h"

namespace gc {

EwmaEstimator::EwmaEstimator(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("EwmaEstimator: alpha must be in (0,1]");
  }
}

void EwmaEstimator::observe(double value) noexcept {
  if (!primed_) {
    value_ = value;
    primed_ = true;
    return;
  }
  value_ = alpha_ * value + (1.0 - alpha_) * value_;
}

void EwmaEstimator::save(SnapshotWriter& w) const {
  w.f64(value_);
  w.boolean(primed_);
}

void EwmaEstimator::load(SnapshotReader& r) {
  value_ = r.f64();
  primed_ = r.boolean();
}

StalenessGuard::StalenessGuard(double horizon_s) : horizon_s_(horizon_s) {
  if (!(horizon_s >= 0.0) || !std::isfinite(horizon_s)) {
    throw std::invalid_argument("StalenessGuard: horizon_s must be finite and >= 0");
  }
}

double StalenessGuard::filter(double age_s, double rate) noexcept {
  if (horizon_s_ <= 0.0 || age_s <= horizon_s_) {
    last_good_ = rate;
    stale_ = false;
    return rate;
  }
  stale_ = true;
  ++stale_ticks_;
  return last_good_;
}

void StalenessGuard::save(SnapshotWriter& w) const {
  w.f64(last_good_);
  w.boolean(stale_);
  w.u64(stale_ticks_);
}

void StalenessGuard::load(SnapshotReader& r) {
  last_good_ = r.f64();
  stale_ = r.boolean();
  stale_ticks_ = r.u64();
}

}  // namespace gc
