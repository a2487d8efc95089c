#include "queueing/mmc.h"

#include <stdexcept>

namespace gc {
namespace mmc {
namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace

bool stable(double lambda, double mu, unsigned c) noexcept {
  return lambda >= 0.0 && mu > 0.0 && c > 0 && lambda < mu * static_cast<double>(c);
}

double erlang_c(double lambda, double mu, unsigned c) {
  require(stable(lambda, mu, c), "mmc: unstable or invalid parameters");
  const double a = lambda / mu;
  const double rho = a / static_cast<double>(c);
  // Numerically robust recurrence on the Erlang-B blocking probability:
  // B(0,a)=1, B(k,a) = a·B(k-1,a) / (k + a·B(k-1,a)); then
  // C = B / (1 - ρ (1 - B)).
  double b = 1.0;
  for (unsigned k = 1; k <= c; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  return b / (1.0 - rho * (1.0 - b));
}

double mean_waiting_time(double lambda, double mu, unsigned c) {
  const double pc = erlang_c(lambda, mu, c);
  return pc / (static_cast<double>(c) * mu - lambda);
}

double mean_response_time(double lambda, double mu, unsigned c) {
  return mean_waiting_time(lambda, mu, c) + 1.0 / mu;
}

}  // namespace mmc
}  // namespace gc
