#include "support/mg1.h"

#include <stdexcept>

namespace gc {
namespace mg1 {
namespace {

void require_valid(double lambda, double mean_service, double scv) {
  const double rho = lambda * mean_service;
  if (!(lambda >= 0.0 && mean_service > 0.0 && scv >= 0.0 && rho < 1.0)) {
    throw std::invalid_argument("mg1: need lambda>=0, E[S]>0, scv>=0, rho<1");
  }
}

}  // namespace

double mean_waiting_time(double lambda, double mean_service, double scv) {
  require_valid(lambda, mean_service, scv);
  const double rho = lambda * mean_service;
  return rho / (1.0 - rho) * (1.0 + scv) / 2.0 * mean_service;
}

double mean_response_time(double lambda, double mean_service, double scv) {
  return mean_waiting_time(lambda, mean_service, scv) + mean_service;
}

double mean_number_in_system(double lambda, double mean_service, double scv) {
  return lambda * mean_response_time(lambda, mean_service, scv);
}

}  // namespace mg1
}  // namespace gc
