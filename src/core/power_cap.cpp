#include "core/power_cap.h"

#include <cmath>

#include "util/assert.h"

namespace gc {

PowerCapSolver::PowerCapSolver(const Provisioner* provisioner)
    : provisioner_(provisioner) {
  GC_CHECK(provisioner != nullptr, "PowerCapSolver: null provisioner");
}

double PowerCapSolver::max_supportable_rate(double cap_watts) const {
  GC_CHECK(cap_watts >= 0.0 && std::isfinite(cap_watts), "bad power cap");
  const double lambda_max = provisioner_->config().max_feasible_arrival_rate();
  const auto fits = [&](double lambda) {
    const OperatingPoint pt = provisioner_->solve(lambda);
    return pt.feasible && pt.power_watts <= cap_watts;
  };
  if (!fits(0.0)) return 0.0;
  if (fits(lambda_max)) return lambda_max;
  // Optimal power is nondecreasing in load (each load's feasible set only
  // shrinks as λ grows), so bisection on λ is exact up to tolerance.
  double lo = 0.0;
  double hi = lambda_max;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::optional<OperatingPoint> PowerCapSolver::best_point_under_cap(
    double lambda, double cap_watts) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "bad lambda");
  GC_CHECK(cap_watts >= 0.0 && std::isfinite(cap_watts), "bad power cap");
  const ClusterConfig& config = provisioner_->config();
  std::optional<OperatingPoint> best;
  for (unsigned m = config.min_servers; m <= config.max_servers; ++m) {
    // Candidate speeds: with a discrete ladder, walk levels from fastest
    // down and take the first affordable one (power increasing in s); with
    // a continuous ladder the affordable frontier is found by bisection.
    OperatingPoint candidate;
    bool have = false;
    if (config.ladder.is_continuous()) {
      double lo = config.ladder.min_speed();
      double hi = 1.0;
      if (provisioner_->evaluate(lambda, m, lo).power_watts > cap_watts) continue;
      if (provisioner_->evaluate(lambda, m, hi).power_watts <= cap_watts) {
        candidate = provisioner_->evaluate(lambda, m, hi);
        have = true;
      } else {
        for (int it = 0; it < 60; ++it) {
          const double mid = 0.5 * (lo + hi);
          if (provisioner_->evaluate(lambda, m, mid).power_watts <= cap_watts) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        candidate = provisioner_->evaluate(lambda, m, lo);
        have = true;
      }
    } else {
      for (std::size_t k = config.ladder.num_levels(); k-- > 0;) {
        const double s = config.ladder.speed_of_level(k);
        const OperatingPoint pt = provisioner_->evaluate(lambda, m, s);
        if (pt.power_watts <= cap_watts) {
          candidate = pt;
          have = true;
          break;
        }
      }
    }
    if (!have || !candidate.feasible) continue;
    if (!best || candidate.response_time_s < best->response_time_s ||
        (candidate.response_time_s == best->response_time_s &&
         candidate.power_watts < best->power_watts)) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace gc
