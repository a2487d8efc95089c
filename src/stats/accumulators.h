// Streaming statistics.
//
// Welford's algorithm keeps mean/variance numerically stable over millions
// of samples without storing them.
#pragma once

#include <cstdint>
#include <limits>

namespace gc {

class MeanVarAccumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  // Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Time-weighted average of a piecewise-constant signal, e.g. number of busy
// servers or instantaneous power.  `advance(t, value)` means: the signal
// held `value` from the previous timestamp up to `t`.
class TimeWeightedAccumulator {
 public:
  explicit TimeWeightedAccumulator(double start_time = 0.0) noexcept
      : last_time_(start_time), start_time_(start_time) {}

  void advance(double now, double value_since_last) noexcept;

  [[nodiscard]] double elapsed() const noexcept { return last_time_ - start_time_; }
  // Integral of the signal over [start, last].
  [[nodiscard]] double integral() const noexcept { return integral_; }
  [[nodiscard]] double time_average() const noexcept {
    const double e = elapsed();
    return e > 0.0 ? integral_ / e : 0.0;
  }
  [[nodiscard]] double last_time() const noexcept { return last_time_; }

 private:
  double last_time_;
  double start_time_;
  double integral_ = 0.0;
};

// Fraction of events satisfying a predicate (e.g. SLA violations).
class RatioAccumulator {
 public:
  void add(bool hit) noexcept {
    ++total_;
    if (hit) ++hits_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] double ratio() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total_);
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace gc
