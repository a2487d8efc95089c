#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/distributions.h"
#include "stats/rng.h"
#include "support/exact_quantile.h"

namespace gc {
namespace {

Job make_job(double arrival) {
  Job job;
  job.arrival_time = arrival;
  return job;
}

TEST(MetricsCollector, RejectsBadTref) {
  EXPECT_DEATH(MetricsCollector(0.0), "positive");
}

TEST(MetricsCollector, TracksResponseStatistics) {
  MetricsCollector metrics(1.0);
  metrics.on_job_completed(2.0, make_job(0.0));   // response 2.0 (violation)
  metrics.on_job_completed(2.5, make_job(2.0));   // response 0.5
  metrics.on_job_completed(3.0, make_job(2.9));   // response 0.1
  EXPECT_EQ(metrics.completed(), 3u);
  EXPECT_NEAR(metrics.response().mean(), (2.0 + 0.5 + 0.1) / 3.0, 1e-12);
  EXPECT_NEAR(metrics.job_violation_ratio(), 1.0 / 3.0, 1e-12);
}

TEST(MetricsCollector, WindowMeanResetsOnTake) {
  MetricsCollector metrics(1.0);
  metrics.on_job_completed(1.0, make_job(0.0));
  EXPECT_DOUBLE_EQ(metrics.take_window_mean_response(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.take_window_mean_response(), 0.0);  // emptied
  metrics.on_job_completed(5.0, make_job(4.5));
  EXPECT_DOUBLE_EQ(metrics.take_window_mean_response(), 0.5);
  // Global stats unaffected by window resets.
  EXPECT_EQ(metrics.completed(), 2u);
}

TEST(MetricsCollector, PercentilesOrdered) {
  MetricsCollector metrics(10.0);
  for (int i = 1; i <= 1000; ++i) {
    metrics.on_job_completed(i * 0.001, make_job(0.0));
  }
  EXPECT_LE(metrics.p95(), metrics.p99());
  EXPECT_GT(metrics.p95(), 0.0);
}

TEST(MetricsCollector, BeginMeasuringForgetsResponses) {
  MetricsCollector metrics(1.0);
  metrics.on_job_completed(5.0, make_job(0.0));  // warmup: response 5 (violation)
  metrics.on_job_completed(6.0, make_job(5.5));
  metrics.begin_measuring();
  EXPECT_EQ(metrics.completed(), 0u);
  EXPECT_EQ(metrics.response().mean(), 0.0);
  EXPECT_EQ(metrics.p95(), 0.0);
  EXPECT_EQ(metrics.p99(), 0.0);
  EXPECT_EQ(metrics.job_violation_ratio(), 0.0);
  EXPECT_EQ(metrics.response_histogram().count(), 0u);

  metrics.on_job_completed(7.0, make_job(6.75));  // response 0.25
  EXPECT_EQ(metrics.completed(), 1u);
  EXPECT_DOUBLE_EQ(metrics.response().mean(), 0.25);
  EXPECT_DOUBLE_EQ(metrics.response().max(), 0.25);
  EXPECT_EQ(metrics.job_violation_ratio(), 0.0);
  EXPECT_EQ(metrics.response_histogram().count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.response_histogram().max(), 0.25);
}

// p95()/p99() are the response histogram's quantiles, so they inherit its
// advertised bound against the exact rank-ceil(p*n) order statistic.
TEST(MetricsCollector, TailsCarryTheHistogramBound) {
  MetricsCollector metrics(1.0);
  const Exponential dist(4.0);  // mean 0.25 s
  Rng rng(31);
  std::vector<double> responses;
  responses.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    responses.push_back(x);
    metrics.on_job_completed(x, make_job(0.0));
  }
  const double bound = LogHistogram::kRelativeErrorBound;
  EXPECT_DOUBLE_EQ(bound, 1.0 / 128.0);
  const double p95 = order_statistic(responses, 0.95);
  const double p99 = order_statistic(responses, 0.99);
  EXPECT_NEAR(metrics.p95(), p95, bound * p95);
  EXPECT_NEAR(metrics.p99(), p99, bound * p99);
}

TEST(SimResult, SlaCheck) {
  SimResult result;
  result.mean_response_s = 0.4;
  EXPECT_TRUE(result.sla_met(0.5));
  EXPECT_FALSE(result.sla_met(0.3));
}

TEST(EnergyBreakdownStruct, TotalSums) {
  EnergyBreakdown e;
  e.busy_j = 1.0;
  e.idle_j = 2.0;
  e.transition_j = 3.0;
  e.off_j = 4.0;
  EXPECT_DOUBLE_EQ(e.total_j(), 10.0);
}

}  // namespace
}  // namespace gc
