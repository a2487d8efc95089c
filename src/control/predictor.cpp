#include "control/predictor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cp/snapshot.h"
#include "util/format.h"

namespace gc {
namespace {

// Shared history (de)serialization for the windowed predictors.  The
// recorded length is checked against the configured window so a snapshot
// taken with different configuration is rejected, not silently truncated.
void save_history(SnapshotWriter& w, const std::deque<double>& history) {
  w.u32(static_cast<std::uint32_t>(history.size()));
  for (const double v : history) w.f64(v);
}

void load_history(SnapshotReader& r, std::deque<double>& history,
                  std::size_t window) {
  const std::uint32_t n = r.u32();
  if (n > window) {
    throw SnapshotError(
        format("predictor: snapshot holds {} samples but the window is {}", n,
               window));
  }
  history.clear();
  for (std::uint32_t i = 0; i < n; ++i) history.push_back(r.f64());
}

}  // namespace

const char* to_string(PredictorKind kind) noexcept {
  switch (kind) {
    case PredictorKind::kLastValue: return "last-value";
    case PredictorKind::kEwma: return "ewma";
    case PredictorKind::kSlidingMax: return "sliding-max";
    case PredictorKind::kLinearTrend: return "linear-trend";
  }
  return "?";
}

std::unique_ptr<LoadPredictor> make_predictor(PredictorKind kind, double sample_period_s) {
  if (!(sample_period_s > 0.0)) {
    throw std::invalid_argument("make_predictor: sample period must be positive");
  }
  switch (kind) {
    case PredictorKind::kLastValue: return std::make_unique<LastValuePredictor>();
    case PredictorKind::kEwma: return std::make_unique<EwmaPredictor>(0.3);
    case PredictorKind::kSlidingMax:
      // Window roughly one long period (10 short samples by default).
      return std::make_unique<SlidingMaxPredictor>(10);
    case PredictorKind::kLinearTrend:
      return std::make_unique<LinearTrendPredictor>(20, sample_period_s);
  }
  throw std::invalid_argument("make_predictor: unknown kind");
}

void LastValuePredictor::save(SnapshotWriter& w) const { w.f64(last_); }

void LastValuePredictor::load(SnapshotReader& r) { last_ = r.f64(); }

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("EwmaPredictor: alpha must be in (0,1]");
  }
}

void EwmaPredictor::observe(double rate) {
  if (!primed_) {
    value_ = rate;
    primed_ = true;
    return;
  }
  value_ = alpha_ * rate + (1.0 - alpha_) * value_;
}

double EwmaPredictor::predict(double /*horizon_s*/) const { return value_; }

std::string EwmaPredictor::name() const { return gc::format("ewma({:g})", alpha_); }

void EwmaPredictor::save(SnapshotWriter& w) const {
  w.f64(value_);
  w.boolean(primed_);
}

void EwmaPredictor::load(SnapshotReader& r) {
  value_ = r.f64();
  primed_ = r.boolean();
}

SlidingMaxPredictor::SlidingMaxPredictor(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("SlidingMaxPredictor: window 0");
}

void SlidingMaxPredictor::observe(double rate) {
  history_.push_back(rate);
  if (history_.size() > window_) history_.pop_front();
}

double SlidingMaxPredictor::predict(double /*horizon_s*/) const {
  if (history_.empty()) return 0.0;
  return *std::max_element(history_.begin(), history_.end());
}

std::string SlidingMaxPredictor::name() const {
  return gc::format("sliding-max({})", window_);
}

void SlidingMaxPredictor::save(SnapshotWriter& w) const {
  save_history(w, history_);
}

void SlidingMaxPredictor::load(SnapshotReader& r) {
  load_history(r, history_, window_);
}

LinearTrendPredictor::LinearTrendPredictor(std::size_t window, double sample_period_s)
    : window_(window), sample_period_(sample_period_s) {
  if (window < 2) throw std::invalid_argument("LinearTrendPredictor: window must be >= 2");
  if (!(sample_period_s > 0.0)) {
    throw std::invalid_argument("LinearTrendPredictor: sample period must be positive");
  }
}

void LinearTrendPredictor::observe(double rate) {
  history_.push_back(rate);
  if (history_.size() > window_) history_.pop_front();
}

double LinearTrendPredictor::predict(double horizon_s) const {
  const std::size_t n = history_.size();
  if (n == 0) return 0.0;
  if (n == 1) return history_.back();
  // Least squares over x = 0..n-1 (in samples).
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    const double y = history_[i];
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double nn = static_cast<double>(n);
  const double denom = nn * sxx - sx * sx;
  const double slope = denom != 0.0 ? (nn * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / nn;
  // Extrapolate to the *end* of the horizon (conservative for a growing
  // ramp, mildly aggressive for a falling one).
  const double x_future =
      static_cast<double>(n - 1) + horizon_s / sample_period_;
  return std::max(intercept + slope * x_future, 0.0);
}

std::string LinearTrendPredictor::name() const {
  return gc::format("linear-trend({})", window_);
}

void LinearTrendPredictor::save(SnapshotWriter& w) const {
  save_history(w, history_);
}

void LinearTrendPredictor::load(SnapshotReader& r) {
  load_history(r, history_, window_);
}

}  // namespace gc
