// Log2-bucketed latency histogram with bounded relative error: the one tail
// estimator of both simulation engines (SimResult::p95/p99_response_s are
// its quantiles) and of the per-period time series.
//
// Layout (HdrHistogram-style): the positive reals are covered by octaves
// [2^o, 2^(o+1)), each subdivided linearly into S = 2^kSubBucketBits
// sub-buckets of width 2^o / S.  A value is indexed by reading its
// IEEE-754 exponent field and the top kSubBucketBits of its mantissa
// straight from its bits — no loops, no libm call.  quantile() returns the
// midpoint of the bucket holding the target rank, so any reported quantile
// q is within
//
//     |q - x| <= kRelativeErrorBound * x,   bound = 1 / (2 S)
//
// of the true order statistic x in that bucket (0.78% at 6 bits).  Two
// histograms over disjoint samples merge *exactly*: bucket counts add, so
// pooling replications (bench/tab4) or sharded runs loses nothing.
//
// Values below 2^kMinExponent (including zero and negatives) land in an
// underflow counter; values at or above 2^kMaxExponent (+inf included) are
// clamped into the top bucket and tallied in saturated() — quantiles over
// clamped mass lose the relative-error bound.  The range spans ~1 µs to
// ~4096 s, every plausible response time here.
#pragma once

#include <cstdint>
#include <vector>

namespace gc {

class LogHistogram {
 public:
  // Sub-buckets per octave = 2^kSubBucketBits.
  static constexpr unsigned kSubBucketBits = 6;
  // Octave range [kMinExponent, kMaxExponent): lowest trackable value is
  // 2^kMinExponent, values >= 2^kMaxExponent saturate the top bucket.
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 12;
  // Advertised bound: 1 / (2 * sub-buckets-per-octave).
  static constexpr double kRelativeErrorBound = 1.0 / (2u << kSubBucketBits);

  LogHistogram();

  void add(double x, std::uint64_t n = 1) noexcept;

  // Forgets every sample (bucket storage is reused).
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

  // Exact pooling: afterwards *this is indistinguishable from having seen
  // both sample streams.
  void merge(const LogHistogram& other);

  // Index of the bucket add(x) counts x in.  x must be >= 2^kMinExponent
  // (smaller values underflow instead); values >= 2^kMaxExponent, +inf
  // included, clamp to the top bucket.
  [[nodiscard]] static std::size_t bucket_index(double x) noexcept;

  // Non-empty buckets in value order (for exposition/export).
  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<Bucket> nonzero_buckets() const;

  // Equality over the order-independent state: bucket counts,
  // count/underflow/saturated, min, max.  `sum` is excluded — it is a
  // floating-point running total whose bits depend on addition order, so a
  // merged histogram and its pooled equivalent agree on everything else.
  friend bool operator==(const LogHistogram& a, const LogHistogram& b);

 private:
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) << kSubBucketBits;
  // 2^kMinExponent: smaller values underflow.
  static constexpr double kLowest =
      1.0 / static_cast<double>(std::uint64_t{1} << -kMinExponent);
  // 2^kMaxExponent: larger values saturate.
  static constexpr double kSaturation =
      static_cast<double>(std::uint64_t{1} << kMaxExponent);

  [[nodiscard]] static double bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static double bucket_upper(std::size_t index) noexcept;

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t saturated_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;
};

}  // namespace gc
