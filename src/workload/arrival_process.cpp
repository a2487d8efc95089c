#include "workload/arrival_process.h"

#include <cmath>
#include "util/format.h"
#include <stdexcept>

#include "util/assert.h"

namespace gc {

PoissonProcess::PoissonProcess(double rate, double horizon, Rng rng)
    : rate_(rate), horizon_(horizon), rng_(rng), initial_rng_(rng) {
  if (!(rate > 0.0 && horizon > 0.0)) {
    throw std::invalid_argument("PoissonProcess: need rate>0, horizon>0");
  }
}

std::optional<double> PoissonProcess::next() {
  t_ += -std::log(rng_.uniform01_open_left()) / rate_;
  if (t_ > horizon_) return std::nullopt;
  return t_;
}

std::string PoissonProcess::name() const { return gc::format("poisson({:g}/s)", rate_); }

void PoissonProcess::reset() {
  rng_ = initial_rng_;
  t_ = 0.0;
}

NhppProcess::NhppProcess(std::shared_ptr<const RateProfile> profile, double horizon,
                         Rng rng, double majorant_window_s)
    : profile_(std::move(profile)), horizon_(horizon), rng_(rng), initial_rng_(rng),
      window_(majorant_window_s) {
  GC_CHECK(profile_ != nullptr, "NhppProcess: null profile");
  if (!(horizon > 0.0 && majorant_window_s > 0.0)) {
    throw std::invalid_argument("NhppProcess: need horizon>0, window>0");
  }
}

std::optional<double> NhppProcess::next() {
  // Thinning: propose candidates at the windowed majorant rate, accept
  // with probability λ(t)/majorant.  Windows with zero majorant are skipped.
  // The profile is immutable, so a window's majorant is evaluated once.
  while (t_ < horizon_) {
    double window_start = std::floor(t_ / window_) * window_;
    // With a width that is no exact binary fraction (0.1 s, say), floor()
    // can put a window's end back into that window; without this step the
    // process would never leave it.
    if (window_start + window_ <= t_) window_start += window_;
    const double window_end = std::min(window_start + window_, horizon_);
    if (window_start != majorant_start_) {
      majorant_start_ = window_start;
      majorant_ = profile_->max_rate(window_start, window_end);
    }
    const double majorant = majorant_;
    if (!(majorant > 0.0)) {
      t_ = window_end;
      continue;
    }
    const double gap = -std::log(rng_.uniform01_open_left()) / majorant;
    const double candidate = t_ + gap;
    if (candidate >= window_end) {
      // No accepted point in this window; restart at its edge with fresh
      // exponential (memorylessness makes this exact).
      t_ = window_end;
      continue;
    }
    t_ = candidate;
    const double lambda = profile_->rate(candidate);
    GC_DCHECK(lambda <= majorant * (1.0 + 1e-9), "profile broke its own majorant");
    if (rng_.uniform01() * majorant < lambda) return candidate;
  }
  return std::nullopt;
}

std::string NhppProcess::name() const { return gc::format("nhpp[{}]", profile_->name()); }

void NhppProcess::reset() {
  rng_ = initial_rng_;
  t_ = 0.0;
  majorant_start_ = std::numeric_limits<double>::quiet_NaN();
}

MmppProcess::MmppProcess(Params params, double horizon, Rng rng)
    : params_(params), horizon_(horizon), rng_(rng), initial_rng_(rng) {
  const bool ok = params.rate0 > 0.0 && params.rate1 > 0.0 && params.switch_rate0 > 0.0 &&
                  params.switch_rate1 > 0.0 && horizon > 0.0;
  if (!ok) throw std::invalid_argument("MmppProcess: all rates and horizon must be > 0");
  roll_phase_end();
}

void MmppProcess::roll_phase_end() {
  const double leave = phase_ == 0 ? params_.switch_rate0 : params_.switch_rate1;
  phase_end_ = t_ + -std::log(rng_.uniform01_open_left()) / leave;
}

std::optional<double> MmppProcess::next() {
  for (;;) {
    const double rate = phase_ == 0 ? params_.rate0 : params_.rate1;
    const double candidate = t_ + -std::log(rng_.uniform01_open_left()) / rate;
    if (candidate < phase_end_) {
      t_ = candidate;
      if (t_ > horizon_) return std::nullopt;
      return t_;
    }
    // Phase switch happened first; jump to it (exponential memorylessness
    // lets us discard the candidate) and flip phase.
    t_ = phase_end_;
    if (t_ > horizon_) return std::nullopt;
    phase_ = 1 - phase_;
    roll_phase_end();
  }
}

std::string MmppProcess::name() const {
  return gc::format("mmpp({:g}/{:g})", params_.rate0, params_.rate1);
}

void MmppProcess::reset() {
  rng_ = initial_rng_;
  t_ = 0.0;
  phase_ = 0;
  roll_phase_end();
}

double MmppProcess::mean_rate() const noexcept {
  // Stationary distribution of the 2-state chain: π0 ∝ 1/leave0 … i.e.
  // π0 = r1 / (r0 + r1) with r_i the switch rates.
  const double pi0 = params_.switch_rate1 / (params_.switch_rate0 + params_.switch_rate1);
  return pi0 * params_.rate0 + (1.0 - pi0) * params_.rate1;
}

DeterministicProcess::DeterministicProcess(double interval, double horizon, double first)
    : interval_(interval), horizon_(horizon), first_(first), t_(first - interval) {
  if (!(interval > 0.0 && horizon > 0.0 && first >= 0.0)) {
    throw std::invalid_argument("DeterministicProcess: invalid parameters");
  }
}

std::optional<double> DeterministicProcess::next() {
  t_ += interval_;
  if (t_ > horizon_) return std::nullopt;
  return t_;
}

std::string DeterministicProcess::name() const {
  return gc::format("det(every {:g}s)", interval_);
}

void DeterministicProcess::reset() { t_ = first_ - interval_; }

TraceProcess::TraceProcess(std::vector<double> timestamps)
    : timestamps_(std::move(timestamps)) {
  for (std::size_t i = 0; i < timestamps_.size(); ++i) {
    const bool ok = timestamps_[i] >= 0.0 &&
                    (i == 0 || timestamps_[i] >= timestamps_[i - 1]);
    if (!ok) throw std::invalid_argument("TraceProcess: timestamps must be nondecreasing");
  }
}

std::optional<double> TraceProcess::next() {
  if (pos_ >= timestamps_.size()) return std::nullopt;
  return timestamps_[pos_++];
}

std::string TraceProcess::name() const {
  return gc::format("trace({} arrivals)", timestamps_.size());
}

void TraceProcess::reset() { pos_ = 0; }

}  // namespace gc
