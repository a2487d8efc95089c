#include "queueing/mm1.h"

#include <stdexcept>

namespace gc {
namespace mm1 {
namespace {

void require_stable(double lambda, double mu) {
  if (!(lambda >= 0.0 && mu > 0.0 && lambda < mu)) {
    throw std::invalid_argument("mm1: requires 0 <= lambda < mu");
  }
}

}  // namespace

bool stable(double lambda, double mu) noexcept {
  return lambda >= 0.0 && mu > 0.0 && lambda < mu;
}

double mean_response_time(double lambda, double mu) {
  require_stable(lambda, mu);
  return 1.0 / (mu - lambda);
}

}  // namespace mm1
}  // namespace gc
