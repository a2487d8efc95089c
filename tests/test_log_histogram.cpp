// stats/log_histogram.h — bucket placement, the advertised relative-error
// bound against exact order statistics, exact mergeability (associativity
// and merge == pooled), serialization round trips, and range handling.
#include "stats/log_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.h"
#include "support/exact_quantile.h"

namespace gc {
namespace {

std::vector<double> random_sample(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix three shapes so samples span several octaves: exponential
    // response times, a heavy lognormal-ish tail, and small uniforms.
    // Floored at 2e-6 (above the 2^-20 lower range bound) so no
    // sample underflows and the relative-error contract applies to all.
    const double u = rng.uniform01();
    double x = 0.0;
    if (u < 0.6) {
      x = -std::log(1.0 - rng.uniform01()) * 0.05;
    } else if (u < 0.9) {
      x = std::exp(2.0 * rng.uniform01() - 1.0) * 0.2;
    } else {
      x = rng.uniform01() * 1e-3;
    }
    xs.push_back(std::max(x, 2e-6));
  }
  return xs;
}

TEST(LogHistogram, EmptyHistogramIsZeroEverywhere) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.saturated(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(LogHistogram, ExactScalarsTrackAddedValues) {
  LogHistogram h;
  h.add(0.5);
  h.add(0.25);
  h.add(1.5, 2);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 0.25 + 2 * 1.5);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.25);  // exact min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);   // exact max
}

TEST(LogHistogram, QuantilesWithinAdvertisedRelativeError) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 5150ULL}) {
    const auto xs = random_sample(seed, 20000);
    LogHistogram h;
    for (const double x : xs) h.add(x);
    ASSERT_EQ(h.count(), xs.size());
    ASSERT_EQ(h.underflow(), 0u);
    ASSERT_EQ(h.saturated(), 0u);
    const double bound = LogHistogram::kRelativeErrorBound;
    EXPECT_DOUBLE_EQ(bound, 1.0 / 128.0);  // 6 sub-bucket bits
    for (const double p : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
      const double exact = order_statistic(xs, p);
      const double est = h.quantile(p);
      EXPECT_NEAR(est, exact, bound * exact)
          << "seed " << seed << " p " << p;
    }
  }
}

TEST(LogHistogram, MergeEqualsPooledSamples) {
  const auto a_xs = random_sample(1, 5000);
  const auto b_xs = random_sample(2, 3000);
  LogHistogram a, b, pooled;
  for (const double x : a_xs) { a.add(x); pooled.add(x); }
  for (const double x : b_xs) { b.add(x); pooled.add(x); }
  a.merge(b);
  EXPECT_EQ(a, pooled);  // == excludes the order-dependent float sum
  EXPECT_NEAR(a.sum(), pooled.sum(), 1e-9 * pooled.sum());
  EXPECT_EQ(a.count(), a_xs.size() + b_xs.size());
  EXPECT_EQ(a.quantile(0.95), pooled.quantile(0.95));
}

TEST(LogHistogram, MergeIsAssociative) {
  LogHistogram a, b, c;
  for (const double x : random_sample(11, 2000)) a.add(x);
  for (const double x : random_sample(12, 2000)) b.add(x);
  for (const double x : random_sample(13, 2000)) c.add(x);

  LogHistogram ab = a;
  ab.merge(b);
  LogHistogram ab_c = ab;
  ab_c.merge(c);

  LogHistogram bc = b;
  bc.merge(c);
  LogHistogram a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);
}

TEST(LogHistogram, MergeWithEmptyIsIdentity) {
  LogHistogram a, empty;
  for (const double x : random_sample(3, 1000)) a.add(x);
  const LogHistogram before = a;
  a.merge(empty);
  EXPECT_EQ(a, before);
  empty.merge(a);
  EXPECT_EQ(empty, before);
}

TEST(LogHistogram, UnderflowAndSaturationAreCounted) {
  LogHistogram h;  // lowest trackable 2^-20, >= 2^12 saturates
  h.add(0.0);
  h.add(-1.0);
  h.add(1e-9);
  h.add(1.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 5u);  // exact scalars cover every add
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.saturated(), 1u);
  // Exact min/max still see out-of-range values; the clamped add lands in
  // the top bucket so upper quantiles stay above the in-range sample.
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_GT(h.quantile(0.99), 1.0);
}

// +inf saturates into the top bucket like any other value >= 2^kMaxExponent:
// the same quantile as 1e300, not a bucket near 0.5.
TEST(LogHistogram, PositiveInfinitySaturatesLikeAHugeValue) {
  LogHistogram inf, huge;
  inf.add(std::numeric_limits<double>::infinity());
  huge.add(1e300);
  EXPECT_EQ(inf.saturated(), 1u);
  EXPECT_EQ(inf.quantile(0.5), huge.quantile(0.5));
  EXPECT_EQ(inf.quantile(0.5), 4080.0);  // the top bucket's midpoint
  EXPECT_EQ(inf.bucket_index(std::numeric_limits<double>::infinity()),
            huge.bucket_index(1e300));
}

// The frexp formula bucket_index replaced, kept as the reference:
// x = m * 2^exp with m in [0.5, 1), octave exp - 1, sub-bucket
// floor((2m - 1) * S), octaves at or above kMaxExponent clamped to the top.
std::size_t frexp_bucket_index(double x) {
  constexpr unsigned kBits = LogHistogram::kSubBucketBits;
  int exp = 0;
  const double mantissa = std::frexp(x, &exp);
  const int octave = exp - 1;
  const auto octaves =
      static_cast<std::size_t>(LogHistogram::kMaxExponent - LogHistogram::kMinExponent);
  if (octave >= LogHistogram::kMaxExponent) return (octaves << kBits) - 1;
  const auto sub_buckets = std::size_t{1} << kBits;
  auto sub = static_cast<std::size_t>((2.0 * mantissa - 1.0) *
                                      static_cast<double>(sub_buckets));
  if (sub >= sub_buckets) sub = sub_buckets - 1;
  const auto row = static_cast<std::size_t>(octave - LogHistogram::kMinExponent);
  return (row << kBits) + sub;
}

// The bit-field index equals the frexp formula on every finite value in
// [2^-20, 2^13) — the histogram's range plus one saturating octave — for
// random exponent/mantissa patterns, exact powers of two and their
// neighbours.
TEST(LogHistogram, BucketIndexMatchesTheFrexpFormula) {
  static_assert(LogHistogram::kMinExponent == -20 && LogHistogram::kMaxExponent == 12);
  std::vector<double> xs;
  Rng rng(2024);
  for (int i = 0; i < 1'200'000; ++i) {
    const auto exponent = static_cast<std::uint64_t>(1023 - 20) + rng.uniform_below(33);
    const std::uint64_t mantissa = rng() >> 12;
    xs.push_back(std::bit_cast<double>((exponent << 52) | mantissa));
  }
  for (int e = -20; e <= 13; ++e) {
    const double p = std::ldexp(1.0, e);
    if (e > -20) xs.push_back(std::nextafter(p, 0.0));
    if (e < 13) {
      xs.push_back(p);
      xs.push_back(std::nextafter(p, 1e9));
    }
  }
  for (const double x : xs) {
    ASSERT_GE(x, 0x1p-20);
    ASSERT_LT(x, 0x1p13);
    ASSERT_EQ(LogHistogram::bucket_index(x), frexp_bucket_index(x)) << "x = " << x;
  }
  EXPECT_GE(xs.size(), 1'200'000u);
}

TEST(LogHistogram, ClearForgetsSamplesKeepsGeometry) {
  LogHistogram h;
  for (const double x : random_sample(8, 500)) h.add(x);
  h.clear();
  EXPECT_EQ(h, LogHistogram());
  EXPECT_EQ(h.count(), 0u);
  h.add(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
}

TEST(LogHistogram, NonzeroBucketsAreOrderedAndCoverTheCounts) {
  LogHistogram h;
  const auto xs = random_sample(77, 3000);
  for (const double x : xs) h.add(x);
  const auto buckets = h.nonzero_buckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i].lower, buckets[i].upper);
    EXPECT_GT(buckets[i].count, 0u);
    if (i > 0) {
      EXPECT_LE(buckets[i - 1].upper, buckets[i].lower + 1e-12);
    }
    total += buckets[i].count;
  }
  EXPECT_EQ(total, h.count());
}

}  // namespace
}  // namespace gc
