#include "support/exact_quantile.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.h"

namespace gc {
namespace {

std::vector<double> sorted_copy(std::span<const double> samples, double p) {
  GC_CHECK(!samples.empty(), "quantile of an empty sample");
  GC_CHECK(p >= 0.0 && p <= 1.0, "quantile: p out of range");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double exact_quantile(std::span<const double> samples, double p) {
  const std::vector<double> sorted = sorted_copy(samples, p);
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double order_statistic(std::span<const double> samples, double p) {
  const std::vector<double> sorted = sorted_copy(samples, p);
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return sorted[rank - 1];
}

}  // namespace gc
