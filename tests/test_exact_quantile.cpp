#include "support/exact_quantile.h"

#include <gtest/gtest.h>

#include <vector>

namespace gc {
namespace {

TEST(ExactQuantile, SmallSamples) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(exact_quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(exact_quantile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(exact_quantile(xs, 0.25), 1.5);  // type-7 interpolation
}

TEST(ExactQuantile, SingleElement) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(exact_quantile(xs, 0.3), 7.0);
}

}  // namespace
}  // namespace gc
