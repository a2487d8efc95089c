// Log2-bucketed latency histogram with bounded relative error: the one tail
// estimator of both simulation engines (SimResult::p95/p99_response_s are
// its quantiles) and of the per-period time series.
//
// Layout (HdrHistogram-style): the positive reals are covered by octaves
// [2^o, 2^(o+1)), each subdivided linearly into S = 2^sub_bucket_bits
// sub-buckets of width 2^o / S.  A value is indexed by reading its
// IEEE-754 exponent field and the top `sub_bucket_bits` of its mantissa
// straight from its bits — no loops, no libm call.  quantile() returns the
// midpoint of the bucket holding the target rank, so any reported quantile
// q is within
//
//     |q - x| <= relative_error_bound() * x,   bound = 1 / (2 S)
//
// of the true order statistic x in that bucket (0.78% at the default 6
// bits).  Two histograms over disjoint samples merge *exactly*:
// bucket counts add, so pooling replications (bench/tab4) or sharded runs
// loses nothing.
//
// Values below 2^min_exponent (including zero and negatives) land in an
// underflow counter; values at or above 2^max_exponent (+inf included) are
// clamped into the top bucket and tallied in saturated() — quantiles over
// clamped mass lose the relative-error bound, so pick the range to cover
// the data (the default spans ~1 µs to ~4096 s, every plausible response
// time here).
#pragma once

#include <cstdint>
#include <vector>

namespace gc {

struct LogHistogramOptions {
  // Sub-buckets per octave = 2^sub_bucket_bits; relative error 1/2^(bits+1).
  unsigned sub_bucket_bits = 6;
  // Octave range [min_exponent, max_exponent): lowest trackable value is
  // 2^min_exponent, values >= 2^max_exponent saturate the top bucket.
  int min_exponent = -20;
  int max_exponent = 12;

  void validate() const;  // throws std::invalid_argument
};

class LogHistogram {
 public:
  explicit LogHistogram(LogHistogramOptions options = {});

  void add(double x, std::uint64_t n = 1) noexcept;

  // Forgets every sample, keeping the geometry (bucket storage is reused).
  void clear() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t saturated() const noexcept { return saturated_; }
  // Exact accompaniments (not bucketed): sum/mean/min/max over added values.
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept;  // 0 when empty
  [[nodiscard]] double max() const noexcept;  // 0 when empty

  // Bucket-midpoint estimate of the p-quantile (p in [0, 1]); 0 when empty.
  // p <= 0 returns the exact min, p >= 1 the exact max.
  [[nodiscard]] double quantile(double p) const noexcept;
  // Advertised bound: 1 / (2 * sub-buckets-per-octave).
  [[nodiscard]] double relative_error_bound() const noexcept;

  [[nodiscard]] const LogHistogramOptions& options() const noexcept { return options_; }
  [[nodiscard]] bool same_geometry(const LogHistogram& other) const noexcept;

  // Exact pooling: afterwards *this is indistinguishable from having seen
  // both sample streams.  Throws std::invalid_argument on geometry mismatch.
  void merge(const LogHistogram& other);

  // Index of the bucket add(x) counts x in.  x must be >= 2^min_exponent
  // (smaller values underflow instead); values >= 2^max_exponent, +inf
  // included, clamp to the top bucket.
  [[nodiscard]] std::size_t bucket_index(double x) const noexcept;

  // Non-empty buckets in value order (for exposition/export).
  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<Bucket> nonzero_buckets() const;

  // Equality over the order-independent state: geometry, bucket counts,
  // count/underflow/saturated, min, max.  `sum` is excluded — it is a
  // floating-point running total whose bits depend on addition order, so a
  // merged histogram and its pooled equivalent agree on everything else.
  friend bool operator==(const LogHistogram& a, const LogHistogram& b);

 private:
  [[nodiscard]] std::size_t num_buckets() const noexcept;
  [[nodiscard]] double bucket_lower(std::size_t index) const noexcept;
  [[nodiscard]] double bucket_upper(std::size_t index) const noexcept;

  LogHistogramOptions options_;
  double lowest_ = 0.0;      // 2^min_exponent: smaller values underflow
  double saturation_ = 0.0;  // 2^max_exponent: larger values saturate
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t saturated_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;
};

}  // namespace gc
