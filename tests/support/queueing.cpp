#include "support/queueing.h"

#include <cmath>
#include <stdexcept>

#include "queueing/mm1.h"
#include "queueing/mmc.h"

namespace gc {
namespace mm1 {
namespace {

void require_stable(double lambda, double mu) {
  if (!stable(lambda, mu)) throw std::invalid_argument("mm1: requires 0 <= lambda < mu");
}

}  // namespace

double utilization(double lambda, double mu) noexcept { return lambda / mu; }

double mean_number_in_system(double lambda, double mu) {
  require_stable(lambda, mu);
  const double rho = lambda / mu;
  return rho / (1.0 - rho);
}

double mean_waiting_time(double lambda, double mu) {
  return mean_response_time(lambda, mu) - 1.0 / mu;
}

double response_time_tail(double lambda, double mu, double t) {
  require_stable(lambda, mu);
  if (t < 0.0) return 1.0;
  return std::exp(-(mu - lambda) * t);
}

double response_time_quantile(double lambda, double mu, double p) {
  require_stable(lambda, mu);
  if (!(p >= 0.0 && p < 1.0)) throw std::invalid_argument("mm1: p must be in [0,1)");
  return -std::log(1.0 - p) / (mu - lambda);
}

double required_service_rate(double lambda, double t_ref) {
  if (!(lambda >= 0.0 && t_ref > 0.0)) {
    throw std::invalid_argument("mm1: need lambda >= 0 and t_ref > 0");
  }
  return lambda + 1.0 / t_ref;
}

}  // namespace mm1

namespace mmc {

double mean_number_in_system(double lambda, double mu, unsigned c) {
  return lambda * mean_response_time(lambda, mu, c);
}

unsigned min_servers_for_response_time(double lambda, double mu, double t_ref,
                                       unsigned c_max) {
  if (!(lambda >= 0.0 && mu > 0.0 && t_ref > 0.0 && c_max > 0)) {
    throw std::invalid_argument("mmc: invalid arguments");
  }
  if (1.0 / mu > t_ref) return 0;  // service time alone exceeds the target
  for (unsigned c = 1; c <= c_max; ++c) {
    if (!stable(lambda, mu, c)) continue;
    if (mean_response_time(lambda, mu, c) <= t_ref) return c;
  }
  return 0;
}

}  // namespace mmc
}  // namespace gc
