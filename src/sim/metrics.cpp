#include "sim/metrics.h"

#include "util/assert.h"

namespace gc {

MetricsCollector::MetricsCollector(double t_ref_s)
    : t_ref_(t_ref_s) {
  GC_CHECK(t_ref_s > 0.0, "MetricsCollector: t_ref must be positive");
}

void MetricsCollector::on_job_completed(double now, const Job& job) {
  const double response = now - job.arrival_time;
  GC_DCHECK(response >= 0.0, "negative response time");
  response_.add(response);
  window_response_.add(response);
  violations_.add(response > t_ref_);
  response_hist_.add(response);
  if (period_window_on_) {
    period_hist_.add(response);
    ++period_completed_;
    if (response > t_ref_) ++period_violations_;
  }
}

void MetricsCollector::begin_measuring() noexcept {
  response_ = MeanVarAccumulator();
  violations_ = RatioAccumulator();
  response_hist_.clear();
}

PeriodWindowStats MetricsCollector::take_period_window() noexcept {
  PeriodWindowStats stats;
  if (!period_window_on_ || period_completed_ == 0) {
    period_hist_.clear();
    period_completed_ = 0;
    period_violations_ = 0;
    return stats;
  }
  stats.completed = period_completed_;
  stats.mean_s = period_hist_.mean();
  stats.p95_s = period_hist_.quantile(0.95);
  stats.p99_s = period_hist_.quantile(0.99);
  stats.violation_fraction = static_cast<double>(period_violations_) /
                             static_cast<double>(period_completed_);
  period_hist_.clear();
  period_completed_ = 0;
  period_violations_ = 0;
  return stats;
}

double MetricsCollector::take_window_mean_response() noexcept {
  const double mean = window_response_.count() > 0 ? window_response_.mean() : 0.0;
  window_response_ = MeanVarAccumulator();
  return mean;
}

}  // namespace gc
