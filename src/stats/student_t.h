// Student-t quantiles for confidence intervals over independent
// replications (bench/tab4_replication_ci) and batch means.
#pragma once

#include <cstddef>

namespace gc {

// Student-t upper quantile for a two-sided `confidence` (0.90, 0.95 or
// 0.99) at df degrees of freedom.
[[nodiscard]] double t_quantile(double confidence, std::size_t df) noexcept;

}  // namespace gc
