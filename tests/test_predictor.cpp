#include "control/predictor.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gc {
namespace {

TEST(PredictorFactory, BuildsEveryKind) {
  for (const auto kind : {PredictorKind::kLastValue, PredictorKind::kEwma,
                          PredictorKind::kSlidingMax, PredictorKind::kLinearTrend}) {
    const auto predictor = make_predictor(kind, 30.0);
    ASSERT_NE(predictor, nullptr);
    EXPECT_FALSE(predictor->name().empty());
    predictor->observe(5.0);
    EXPECT_GE(predictor->predict(300.0), 0.0);
  }
}

TEST(PredictorFactory, RejectsBadPeriod) {
  EXPECT_THROW(make_predictor(PredictorKind::kEwma, 0.0), std::invalid_argument);
}

TEST(PredictorKindNames, ToString) {
  EXPECT_STREQ(to_string(PredictorKind::kLastValue), "last-value");
  EXPECT_STREQ(to_string(PredictorKind::kSlidingMax), "sliding-max");
}

TEST(LastValue, ReturnsLatest) {
  LastValuePredictor p;
  EXPECT_DOUBLE_EQ(p.predict(100.0), 0.0);
  p.observe(3.0);
  p.observe(7.0);
  EXPECT_DOUBLE_EQ(p.predict(100.0), 7.0);
}

TEST(EwmaPred, SmoothsHistory) {
  EwmaPredictor p(0.5);
  p.observe(0.0);
  p.observe(8.0);
  EXPECT_DOUBLE_EQ(p.predict(0.0), 4.0);
}

TEST(EwmaPred, RejectsBadAlpha) {
  EXPECT_THROW(EwmaPredictor(0.0), std::invalid_argument);
}

TEST(SlidingMax, RemembersRecentPeak) {
  SlidingMaxPredictor p(3);
  p.observe(10.0);
  p.observe(2.0);
  p.observe(3.0);
  EXPECT_DOUBLE_EQ(p.predict(0.0), 10.0);
  p.observe(1.0);  // evicts the 10
  EXPECT_DOUBLE_EQ(p.predict(0.0), 3.0);
}

TEST(SlidingMax, RejectsZeroWindow) {
  EXPECT_THROW(SlidingMaxPredictor(0), std::invalid_argument);
}

TEST(LinearTrend, ExtrapolatesRamp) {
  LinearTrendPredictor p(10, 1.0);
  // Perfect ramp: rate t at time t.
  for (int t = 0; t < 10; ++t) p.observe(static_cast<double>(t));
  // At the last sample (t=9), predicting 5 s ahead should give ~14.
  EXPECT_NEAR(p.predict(5.0), 14.0, 1e-9);
}

TEST(LinearTrend, FlatHistoryPredictsFlat) {
  LinearTrendPredictor p(10, 1.0);
  for (int t = 0; t < 10; ++t) p.observe(5.0);
  EXPECT_NEAR(p.predict(100.0), 5.0, 1e-9);
}

TEST(LinearTrend, ClampsNegativePredictionsAtZero) {
  LinearTrendPredictor p(5, 1.0);
  for (int t = 0; t < 5; ++t) p.observe(10.0 - 2.0 * t);
  EXPECT_DOUBLE_EQ(p.predict(100.0), 0.0);
}

TEST(LinearTrend, SingleSampleFallsBack) {
  LinearTrendPredictor p(5, 1.0);
  p.observe(4.0);
  EXPECT_DOUBLE_EQ(p.predict(10.0), 4.0);
}

TEST(LinearTrend, RejectsBadParams) {
  EXPECT_THROW(LinearTrendPredictor(1, 1.0), std::invalid_argument);
  EXPECT_THROW(LinearTrendPredictor(5, 0.0), std::invalid_argument);
}

TEST(LinearTrend, WindowEvictsOldSlope) {
  LinearTrendPredictor p(4, 1.0);
  // Old steep history followed by a flat plateau: once the window rolls,
  // the prediction flattens.
  for (int t = 0; t < 20; ++t) p.observe(t < 10 ? 10.0 * t : 100.0);
  EXPECT_NEAR(p.predict(10.0), 100.0, 1.0);
}

}  // namespace
}  // namespace gc
