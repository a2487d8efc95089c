#include "stats/log_histogram.h"

#include <bit>
#include <cmath>
#include <limits>

namespace gc {

LogHistogram::LogHistogram()
    : counts_(kNumBuckets, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

std::size_t LogHistogram::bucket_index(double x) noexcept {
  if (x >= kSaturation) return kNumBuckets - 1;  // clamped, +inf included
  // x >= 2^kMinExponent is a normal double: x = (1 + f) * 2^e with the
  // biased e in bits 52..62 and f's 52 bits below it.  The top
  // kSubBucketBits of f are floor(f * S), the sub-bucket.  Writing x as
  // m * 2^(e+1) with m in [0.5, 1), that is floor((2m - 1) * S) exactly:
  // the product is exact, so no rounding can move a value across a bucket
  // edge.
  constexpr unsigned kMantissaBits = 52;
  constexpr int kExponentBias = 1023;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const int octave = static_cast<int>(bits >> kMantissaBits) - kExponentBias;
  constexpr std::uint64_t kSubMask = (std::uint64_t{1} << kSubBucketBits) - 1;
  const std::uint64_t sub = (bits >> (kMantissaBits - kSubBucketBits)) & kSubMask;
  const auto row = static_cast<std::size_t>(octave - kMinExponent);
  return (row << kSubBucketBits) + static_cast<std::size_t>(sub);
}

double LogHistogram::bucket_lower(std::size_t index) noexcept {
  constexpr auto kSubBuckets = std::size_t{1} << kSubBucketBits;
  const int octave = kMinExponent + static_cast<int>(index >> kSubBucketBits);
  const auto sub = index & (kSubBuckets - 1);
  return std::ldexp(1.0 + static_cast<double>(sub) / static_cast<double>(kSubBuckets),
                    octave);
}

double LogHistogram::bucket_upper(std::size_t index) noexcept {
  constexpr auto kSubBuckets = std::size_t{1} << kSubBucketBits;
  const int octave = kMinExponent + static_cast<int>(index >> kSubBucketBits);
  const auto sub = index & (kSubBuckets - 1);
  return std::ldexp(
      1.0 + static_cast<double>(sub + 1) / static_cast<double>(kSubBuckets), octave);
}

void LogHistogram::clear() noexcept {
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  underflow_ = 0;
  saturated_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void LogHistogram::add(double x, std::uint64_t n) noexcept {
  if (n == 0 || std::isnan(x)) return;
  count_ += n;
  sum_ += x * static_cast<double>(n);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  if (x < kLowest) {
    underflow_ += n;
    return;
  }
  if (x >= kSaturation) saturated_ += n;
  counts_[bucket_index(x)] += n;
}

double LogHistogram::min() const noexcept { return count_ == 0 ? 0.0 : min_; }

double LogHistogram::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

double LogHistogram::quantile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  // Rank of the target order statistic, 1-based.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  // Underflow mass sorts below every bucket; its best representative is the
  // exact minimum.
  if (rank <= underflow_) return min_;
  std::uint64_t cumulative = underflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return 0.5 * (bucket_lower(i) + bucket_upper(i));
    }
  }
  return max_;  // unreachable unless counts drifted; max is always safe
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  underflow_ += other.underflow_;
  saturated_ += other.saturated_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

std::vector<LogHistogram::Bucket> LogHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      out.push_back(Bucket{bucket_lower(i), bucket_upper(i), counts_[i]});
    }
  }
  return out;
}

bool operator==(const LogHistogram& a, const LogHistogram& b) {
  if (a.count_ != b.count_ || a.underflow_ != b.underflow_ ||
      a.saturated_ != b.saturated_) {
    return false;
  }
  // sum is deliberately excluded: it is an fp convenience aggregate whose
  // value depends on addition order (merge vs. sequential add), while the
  // bucketed state below is exactly order-independent.
  if (a.min() != b.min() || a.max() != b.max()) return false;
  return a.counts_ == b.counts_;
}

}  // namespace gc
