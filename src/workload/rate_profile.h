// Time-varying arrival-rate profiles λ(t).
//
// The controller never sees λ(t) directly — it estimates it — but the
// workload generator (non-homogeneous Poisson via thinning) and the
// experiment harness both need the ground-truth profile.  Profiles must
// report an upper bound over any interval, which thinning requires and the
// DCP long-period planner uses as an oracle predictor in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gc {

class RateProfile {
 public:
  virtual ~RateProfile() = default;

  // λ(t) in jobs/second; must be >= 0 and finite for all t >= 0.
  [[nodiscard]] virtual double rate(double t) const = 0;

  // An upper bound of λ over [t0, t1] (need not be tight but must be valid).
  [[nodiscard]] virtual double max_rate(double t0, double t1) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Average of λ over [t0, t1], computed numerically unless overridden.
  [[nodiscard]] virtual double average_rate(double t0, double t1) const;
};

// λ(t) = c.
class ConstantRate final : public RateProfile {
 public:
  explicit ConstantRate(double rate_per_s);
  [[nodiscard]] double rate(double /*t*/) const override { return rate_; }
  [[nodiscard]] double max_rate(double, double) const override { return rate_; }
  [[nodiscard]] double average_rate(double, double) const override { return rate_; }
  [[nodiscard]] std::string name() const override;

 private:
  double rate_;
};

// Diurnal sinusoid: base + amplitude * sin(2π (t - phase) / period), clipped
// at `floor` (default 0).  The classic smooth day/night data-center load.
class SinusoidalRate final : public RateProfile {
 public:
  SinusoidalRate(double base, double amplitude, double period_s, double phase_s = 0.0,
                 double floor = 0.0);
  [[nodiscard]] double rate(double t) const override;
  [[nodiscard]] double max_rate(double t0, double t1) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double base_, amplitude_, period_, phase_, floor_;
};

// Piecewise-linear interpolation through (time, rate) knots; constant
// extrapolation outside.  This is how recorded traces are replayed as
// profiles.
class PiecewiseLinearRate final : public RateProfile {
 public:
  struct Knot {
    double time;
    double rate;
  };
  // Knots must be strictly increasing in time, rates >= 0.
  explicit PiecewiseLinearRate(std::vector<Knot> knots);
  [[nodiscard]] double rate(double t) const override;
  [[nodiscard]] double max_rate(double t0, double t1) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const std::vector<Knot>& knots() const noexcept { return knots_; }

 private:
  std::vector<Knot> knots_;
};

// A base profile plus rectangular "flash crowd" spikes: each spike
// multiplies the base rate by `factor` over [start, start + duration).
class FlashCrowdRate final : public RateProfile {
 public:
  struct Spike {
    double start;
    double duration;
    double factor;  // >= 1
  };
  FlashCrowdRate(std::shared_ptr<const RateProfile> base, std::vector<Spike> spikes);
  [[nodiscard]] double rate(double t) const override;
  [[nodiscard]] double max_rate(double t0, double t1) const override;
  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] double factor_at(double t) const;
  std::shared_ptr<const RateProfile> base_;
  std::vector<Spike> spikes_;
};

// Forwards to another profile and counts the calls made to it, so a test or
// a bench can see what a sampler costs (e.g. how many majorants thinning
// evaluates).  The counters are plain, not atomic: one thread at a time.
class CountingRate final : public RateProfile {
 public:
  explicit CountingRate(std::shared_ptr<const RateProfile> base);
  [[nodiscard]] double rate(double t) const override {
    ++rate_calls_;
    return base_->rate(t);
  }
  [[nodiscard]] double max_rate(double t0, double t1) const override {
    ++max_rate_calls_;
    return base_->max_rate(t0, t1);
  }
  [[nodiscard]] std::string name() const override { return base_->name(); }
  [[nodiscard]] std::uint64_t rate_calls() const noexcept { return rate_calls_; }
  [[nodiscard]] std::uint64_t max_rate_calls() const noexcept { return max_rate_calls_; }

 private:
  std::shared_ptr<const RateProfile> base_;
  mutable std::uint64_t rate_calls_ = 0;
  mutable std::uint64_t max_rate_calls_ = 0;
};

// Synthetic "WC98-like" web-workload profile: diurnal base with a multi-day
// linear ramp (event build-up), deterministic-seeded flash-crowd spikes and
// smooth noise.  This substitutes for the paper's (unavailable) real trace;
// see DESIGN.md §2 for why the substitution preserves the behaviour under
// test.  `day_s` lets benches compress the diurnal period (the standard
// simulation-time trick; control periods scale with it).
[[nodiscard]] std::shared_ptr<const RateProfile> make_wc98_like_profile(
    double peak_rate, double days, std::uint64_t seed, double day_s = 86400.0);

}  // namespace gc
