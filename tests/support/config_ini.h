// Renders a ClusterConfig as the INI text core/config_io reads back: the
// writer half of the config round-trip tests.  Nothing outside the tests
// writes config files, so it lives here rather than in src/.
#pragma once

#include <string>

#include "core/cluster_config.h"

namespace gc {

// Every field, numbers at {:.9g}, sections in a fixed order.
[[nodiscard]] std::string cluster_config_ini(const ClusterConfig& config);

}  // namespace gc
