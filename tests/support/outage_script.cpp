#include "support/outage_script.h"

#include <cmath>

#include "stats/rng.h"

namespace gc {

std::vector<ControllerOutage> random_outages(std::uint64_t seed, double mtbf_s,
                                             double mttr_s, double horizon_s) {
  Rng rng(seed);
  std::vector<ControllerOutage> outages;
  for (double t = -mtbf_s * std::log(rng.uniform01_open_left()); t < horizon_s;
       t += -mtbf_s * std::log(rng.uniform01_open_left())) {
    const double duration = -mttr_s * std::log(rng.uniform01_open_left());
    outages.push_back({t, duration});
    t += duration;
  }
  return outages;
}

}  // namespace gc
