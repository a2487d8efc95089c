// Test-drawn controller outage schedules.
//
// The simulator runs scripted outage windows only.  Tests that want
// outages at arbitrary phases of the control cycle draw a fail-stop chain
// into a script once, up front: exponential time to failure (mean
// `mtbf_s`), then an exponential outage (mean `mttr_s`), repeated.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/control_channel.h"

namespace gc {

// The outages of that chain that start before `horizon_s`, drawn from
// Rng(seed).
[[nodiscard]] std::vector<ControllerOutage> random_outages(std::uint64_t seed,
                                                           double mtbf_s, double mttr_s,
                                                           double horizon_s);

}  // namespace gc
