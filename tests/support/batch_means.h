// Batch-means confidence intervals for steady-state simulation output: the
// interval estimator the tests check the simulator's run-length claims
// with.  Nothing outside the tests builds one, so it lives here.
//
// Response times from one simulation run are autocorrelated, so the naive
// SEM understates the error.  The classic remedy (Law & Kelton) is to chop
// the run into `k` contiguous batches, treat batch means as i.i.d., and
// build a t-interval over them.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/accumulators.h"

namespace gc {

struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  [[nodiscard]] double lower() const noexcept { return mean - half_width; }
  [[nodiscard]] double upper() const noexcept { return mean + half_width; }
  [[nodiscard]] bool contains(double x) const noexcept {
    return x >= lower() && x <= upper();
  }
};

class BatchMeans {
 public:
  // `batch_size` observations per batch; `num_batches` capped (older
  // batches are merged pairwise when the cap is hit, doubling batch size).
  explicit BatchMeans(std::size_t batch_size = 1024, std::size_t max_batches = 64);

  void add(double x);

  [[nodiscard]] std::size_t completed_batches() const noexcept { return batch_means_.size(); }
  [[nodiscard]] double grand_mean() const noexcept;

  // Two-sided CI at the given confidence level (0.90, 0.95 or 0.99 use
  // exact-ish t quantiles; anything else falls back to the normal quantile).
  [[nodiscard]] ConfidenceInterval interval(double confidence = 0.95) const;

 private:
  void finish_batch();

  std::size_t batch_size_;
  std::size_t max_batches_;
  MeanVarAccumulator current_;
  std::vector<double> batch_means_;
  MeanVarAccumulator all_;  // grand mean over every observation
};

}  // namespace gc
