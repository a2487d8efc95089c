#include "workload/rate_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include "util/format.h"
#include <numbers>
#include <stdexcept>

#include "stats/rng.h"
#include "util/assert.h"

namespace gc {

double RateProfile::average_rate(double t0, double t1) const {
  GC_CHECK(t1 > t0, "average_rate: empty interval");
  // Composite midpoint rule; profiles are smooth or piecewise linear, so a
  // fixed 256-point rule is plenty for harness-level accuracy.
  constexpr int kPoints = 256;
  const double h = (t1 - t0) / kPoints;
  double sum = 0.0;
  for (int i = 0; i < kPoints; ++i) sum += rate(t0 + (i + 0.5) * h);
  return sum / kPoints;
}

ConstantRate::ConstantRate(double rate_per_s) : rate_(rate_per_s) {
  if (!(rate_per_s >= 0.0) || !std::isfinite(rate_per_s)) {
    throw std::invalid_argument("ConstantRate: rate must be >= 0");
  }
}

std::string ConstantRate::name() const { return gc::format("const({:g}/s)", rate_); }

SinusoidalRate::SinusoidalRate(double base, double amplitude, double period_s,
                               double phase_s, double floor)
    : base_(base), amplitude_(amplitude), period_(period_s), phase_(phase_s), floor_(floor) {
  if (!(base >= 0.0 && amplitude >= 0.0 && period_s > 0.0 && floor >= 0.0)) {
    throw std::invalid_argument("SinusoidalRate: invalid parameters");
  }
}

double SinusoidalRate::rate(double t) const {
  const double x = base_ + amplitude_ * std::sin(2.0 * std::numbers::pi * (t - phase_) / period_);
  return std::max(x, floor_);
}

double SinusoidalRate::max_rate(double t0, double t1) const {
  // If the interval covers a peak, the bound is base+amplitude; otherwise
  // sample the endpoints (the sinusoid is monotone between extrema).
  if (t1 - t0 >= period_ / 2.0) return std::max(base_ + amplitude_, floor_);
  const double r0 = rate(t0);
  const double r1 = rate(t1);
  // Check whether a crest (phase + period/4 mod period) lies inside.
  const double crest0 = phase_ + period_ / 4.0;
  const double k = std::ceil((t0 - crest0) / period_);
  const double crest = crest0 + k * period_;
  if (crest >= t0 && crest <= t1) return std::max(base_ + amplitude_, floor_);
  return std::max(r0, r1);
}

std::string SinusoidalRate::name() const {
  return gc::format("sine(base={:g},amp={:g},T={:g}s)", base_, amplitude_, period_);
}

PiecewiseLinearRate::PiecewiseLinearRate(std::vector<Knot> knots) : knots_(std::move(knots)) {
  if (knots_.empty()) throw std::invalid_argument("PiecewiseLinearRate: no knots");
  for (std::size_t i = 0; i < knots_.size(); ++i) {
    if (!(knots_[i].rate >= 0.0) || !std::isfinite(knots_[i].rate)) {
      throw std::invalid_argument("PiecewiseLinearRate: rates must be >= 0");
    }
    if (i > 0 && !(knots_[i].time > knots_[i - 1].time)) {
      throw std::invalid_argument("PiecewiseLinearRate: times must be strictly increasing");
    }
  }
}

double PiecewiseLinearRate::rate(double t) const {
  if (t <= knots_.front().time) return knots_.front().rate;
  if (t >= knots_.back().time) return knots_.back().rate;
  const auto it = std::lower_bound(
      knots_.begin(), knots_.end(), t,
      [](const Knot& k, double time) { return k.time < time; });
  const Knot& hi = *it;
  const Knot& lo = *(it - 1);
  const double w = (t - lo.time) / (hi.time - lo.time);
  return lo.rate + w * (hi.rate - lo.rate);
}

double PiecewiseLinearRate::max_rate(double t0, double t1) const {
  // The interpolant peaks at an endpoint or at a knot inside [t0, t1]; the
  // knots are sorted, so two binary searches bound the ones to visit.
  double best = std::max(rate(t0), rate(t1));
  const auto first = std::lower_bound(
      knots_.begin(), knots_.end(), t0,
      [](const Knot& k, double time) { return k.time < time; });
  const auto last = std::upper_bound(
      first, knots_.end(), t1, [](double time, const Knot& k) { return time < k.time; });
  for (auto it = first; it < last; ++it) best = std::max(best, it->rate);
  return best;
}

std::string PiecewiseLinearRate::name() const {
  return gc::format("piecewise({} knots)", knots_.size());
}

FlashCrowdRate::FlashCrowdRate(std::shared_ptr<const RateProfile> base,
                               std::vector<Spike> spikes)
    : base_(std::move(base)), spikes_(std::move(spikes)) {
  GC_CHECK(base_ != nullptr, "FlashCrowdRate: null base profile");
  for (const Spike& s : spikes_) {
    if (!(s.duration > 0.0 && s.factor >= 1.0)) {
      throw std::invalid_argument("FlashCrowdRate: need duration>0, factor>=1");
    }
  }
}

double FlashCrowdRate::factor_at(double t) const {
  double f = 1.0;
  for (const Spike& s : spikes_) {
    if (t >= s.start && t < s.start + s.duration) f = std::max(f, s.factor);
  }
  return f;
}

double FlashCrowdRate::rate(double t) const { return base_->rate(t) * factor_at(t); }

double FlashCrowdRate::max_rate(double t0, double t1) const {
  double max_factor = 1.0;
  for (const Spike& s : spikes_) {
    // Closed-interval contract: a spike starting exactly at t1 counts.
    const bool overlaps = s.start <= t1 && s.start + s.duration > t0;
    if (overlaps) max_factor = std::max(max_factor, s.factor);
  }
  return base_->max_rate(t0, t1) * max_factor;
}

std::string FlashCrowdRate::name() const {
  return gc::format("{}+{}spikes", base_->name(), spikes_.size());
}

CountingRate::CountingRate(std::shared_ptr<const RateProfile> base) : base_(std::move(base)) {
  GC_CHECK(base_ != nullptr, "CountingRate: null base profile");
}

std::shared_ptr<const RateProfile> make_wc98_like_profile(double peak_rate, double days,
                                                          std::uint64_t seed, double day_s) {
  GC_CHECK(peak_rate > 0.0 && days > 0.0 && day_s > 0.0,
           "wc98 profile: need peak_rate>0, days>0, day_s>0");
  const double kDay = day_s;
  const double horizon = days * kDay;

  // Build hourly knots: diurnal shape (two humps like web traffic), a
  // linear multi-day ramp towards the "event", and smooth lognormal-ish
  // jitter.  Everything is derived from `seed` so traces are reproducible.
  std::vector<PiecewiseLinearRate::Knot> knots;
  const int hours = static_cast<int>(days * 24.0) + 1;
  const double hour_s = kDay / 24.0;
  knots.reserve(static_cast<std::size_t>(hours));
  Rng jitter_rng(seed, 7);
  for (int h = 0; h < hours; ++h) {
    const double t = h * hour_s;
    const double day_frac = std::fmod(t, kDay) / kDay;
    // Two-hump diurnal: morning and evening peaks, deep night trough.
    const double diurnal = 0.35 + 0.4 * std::exp(-std::pow((day_frac - 0.45) / 0.13, 2)) +
                           0.55 * std::exp(-std::pow((day_frac - 0.80) / 0.10, 2));
    const double ramp = 0.6 + 0.4 * (t / horizon);  // interest builds up
    const double noise = 0.92 + 0.16 * jitter_rng.uniform01();
    knots.push_back({t, peak_rate * diurnal * ramp * noise});
  }
  auto base = std::make_shared<PiecewiseLinearRate>(std::move(knots));

  // Flash crowds: 2 per day on average, 10–30 minutes, 1.5–2.5x.
  std::vector<FlashCrowdRate::Spike> spikes;
  Rng spike_rng(seed, 11);
  const int num_spikes = std::max(1, static_cast<int>(days * 2.0));
  for (int i = 0; i < num_spikes; ++i) {
    FlashCrowdRate::Spike s;
    s.start = spike_rng.uniform01() * (horizon * 0.95);
    s.duration = (600.0 + 1200.0 * spike_rng.uniform01()) * (kDay / 86400.0);
    s.factor = 1.5 + spike_rng.uniform01();
    spikes.push_back(s);
  }
  return std::make_shared<FlashCrowdRate>(std::move(base), std::move(spikes));
}

}  // namespace gc
