// Exact sample quantiles: the reference the tests hold the streaming
// estimators (stats/log_histogram.h) and the simulated tails against.
#pragma once

#include <span>

namespace gc {

// Exact quantile with linear interpolation (type-7, the numpy default).
// `p` in [0, 1].  The input need not be sorted; it is copied.
[[nodiscard]] double exact_quantile(std::span<const double> samples, double p);

// The ceil(p * n)-th smallest sample (at least the first): the rank
// LogHistogram::quantile reports.  `p` in [0, 1]; the input is copied.
[[nodiscard]] double order_statistic(std::span<const double> samples, double p);

}  // namespace gc
