#include "stats/accumulators.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace gc {

void MeanVarAccumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double MeanVarAccumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double MeanVarAccumulator::stddev() const noexcept { return std::sqrt(variance()); }

double MeanVarAccumulator::sem() const noexcept {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

void TimeWeightedAccumulator::advance(double now, double value_since_last) noexcept {
  GC_DCHECK(now >= last_time_, "time must be nondecreasing");
  integral_ += (now - last_time_) * value_since_last;
  last_time_ = now;
}

}  // namespace gc
