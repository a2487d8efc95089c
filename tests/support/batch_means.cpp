#include "support/batch_means.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/student_t.h"

namespace gc {

BatchMeans::BatchMeans(std::size_t batch_size, std::size_t max_batches)
    : batch_size_(batch_size), max_batches_(max_batches) {
  if (batch_size == 0 || max_batches < 2) {
    throw std::invalid_argument("BatchMeans: need batch_size>0, max_batches>=2");
  }
}

void BatchMeans::add(double x) {
  all_.add(x);
  current_.add(x);
  if (current_.count() >= batch_size_) finish_batch();
}

void BatchMeans::finish_batch() {
  batch_means_.push_back(current_.mean());
  current_ = MeanVarAccumulator();
  if (batch_means_.size() >= max_batches_) {
    // Halve: merge adjacent batches, double the batch size.
    std::vector<double> merged;
    merged.reserve(batch_means_.size() / 2);
    for (std::size_t i = 0; i + 1 < batch_means_.size(); i += 2) {
      merged.push_back(0.5 * (batch_means_[i] + batch_means_[i + 1]));
    }
    batch_means_ = std::move(merged);
    batch_size_ *= 2;
  }
}

double BatchMeans::grand_mean() const noexcept { return all_.mean(); }

ConfidenceInterval BatchMeans::interval(double confidence) const {
  ConfidenceInterval ci;
  ci.mean = grand_mean();
  const std::size_t k = batch_means_.size();
  if (k < 2) {
    ci.half_width = std::numeric_limits<double>::infinity();
    return ci;
  }
  MeanVarAccumulator acc;
  for (const double m : batch_means_) acc.add(m);
  const double se = acc.stddev() / std::sqrt(static_cast<double>(k));
  ci.half_width = t_quantile(confidence, k - 1) * se;
  return ci;
}

}  // namespace gc
