#include "core/dcp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.h"

namespace gc {

void DcpParams::validate() const {
  if (!(long_period_s > 0.0 && short_period_s > 0.0)) {
    throw std::invalid_argument("DcpParams: periods must be positive");
  }
  if (short_period_s > long_period_s) {
    throw std::invalid_argument("DcpParams: short period must not exceed long period");
  }
  if (!(safety_margin >= 1.0) || !std::isfinite(safety_margin)) {
    throw std::invalid_argument("DcpParams: safety_margin must be >= 1");
  }
  if (scale_down_patience == 0) {
    throw std::invalid_argument("DcpParams: scale_down_patience must be >= 1");
  }
}

DcpPlanner::DcpPlanner(const Provisioner* provisioner, DcpParams params)
    : provisioner_(provisioner), params_(params) {
  GC_CHECK(provisioner_ != nullptr, "DcpPlanner: null provisioner");
  params_.validate();
}

double DcpPlanner::prediction_horizon() const noexcept {
  return params_.long_period_s + provisioner_->config().transition.boot_delay_s;
}

OperatingPoint DcpPlanner::plan_point(double predicted_rate) const {
  GC_CHECK(predicted_rate >= 0.0 && std::isfinite(predicted_rate),
           "plan_point: bad predicted rate");
  const double padded = predicted_rate * params_.safety_margin;
  return provisioner_->solve(padded);
}

OperatingPoint DcpPlanner::plan_speed(double current_rate, unsigned serving) const {
  GC_CHECK(current_rate >= 0.0 && std::isfinite(current_rate),
           "plan_speed: bad current rate");
  const unsigned m = std::clamp(serving, 1u, provisioner_->config().max_servers);
  return provisioner_->best_speed_for(current_rate, m);
}

OperatingPoint DcpPlanner::plan_speed_with_backlog(double current_rate, unsigned serving,
                                                   double jobs_in_system,
                                                   double drain_horizon_s) const {
  GC_CHECK(jobs_in_system >= 0.0, "plan_speed_with_backlog: negative job count");
  GC_CHECK(drain_horizon_s > 0.0, "plan_speed_with_backlog: horizon must be positive");
  const double on_target = current_rate * provisioner_->config().t_ref_s;
  const double excess = std::max(jobs_in_system - on_target, 0.0);
  return plan_speed(current_rate + excess / drain_horizon_s, serving);
}

HysteresisGate::HysteresisGate(unsigned patience) : patience_(patience) {
  if (patience == 0) throw std::invalid_argument("HysteresisGate: patience must be >= 1");
}

unsigned HysteresisGate::propose(unsigned current, unsigned target) {
  if (target >= current) {
    streak_ = 0;
    return target;
  }
  ++streak_;
  if (streak_ >= patience_) {
    streak_ = 0;
    return target;
  }
  return current;
}

}  // namespace gc
