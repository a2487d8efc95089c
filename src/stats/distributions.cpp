#include "stats/distributions.h"

#include <cmath>
#include "util/format.h"
#include <stdexcept>

namespace gc {
namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace

Exponential::Exponential(double lambda) : lambda_(lambda) {
  require(lambda > 0.0 && std::isfinite(lambda), "Exponential: rate must be positive");
}

double Exponential::sample(Rng& rng) const noexcept {
  return -std::log(rng.uniform01_open_left()) / lambda_;
}

BoundedPareto::BoundedPareto(double alpha, double lo, double hi)
    : alpha_(alpha), lo_(lo), hi_(hi) {
  require(alpha > 0.0 && lo > 0.0 && hi > lo, "BoundedPareto: need alpha>0, 0<lo<hi");
}

double BoundedPareto::sample(Rng& rng) const noexcept {
  // Inverse-CDF for the truncated Pareto.
  const double u = rng.uniform01();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

double BoundedPareto::mean() const noexcept {
  if (alpha_ == 1.0) {
    return (std::log(hi_) - std::log(lo_)) * lo_ * hi_ / (hi_ - lo_);
  }
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return la / (1.0 - la / ha) * (alpha_ / (alpha_ - 1.0)) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) - 1.0 / std::pow(hi_, alpha_ - 1.0));
}

Deterministic::Deterministic(double value) : value_(value) {
  require(value >= 0.0 && std::isfinite(value), "Deterministic: value must be >= 0");
}

Distribution Distribution::exponential(double rate) {
  return Distribution(Exponential(rate), gc::format("exp(rate={:g})", rate));
}

Distribution Distribution::deterministic(double value) {
  return Distribution(Deterministic(value), gc::format("det({:g})", value));
}

Distribution Distribution::bounded_pareto(double alpha, double lo, double hi) {
  return Distribution(BoundedPareto(alpha, lo, hi),
                      gc::format("bpareto(a={:g},[{:g},{:g}])", alpha, lo, hi));
}

namespace {

// Multiplies every sample of a base distribution by a constant.
struct ScaledDistribution {
  Distribution base;
  double factor;
  [[nodiscard]] double sample(Rng& rng) const { return base.sample(rng) * factor; }
  [[nodiscard]] double mean() const { return base.mean() * factor; }
};

}  // namespace

Distribution Distribution::scaled(double factor) const {
  require(factor > 0.0 && std::isfinite(factor), "Distribution::scaled: factor > 0");
  return Distribution(ScaledDistribution{*this, factor},
                      gc::format("{:g}x {}", factor, name()));
}

Distribution Distribution::with_mean(double target_mean) const {
  require(target_mean > 0.0 && std::isfinite(target_mean),
          "Distribution::with_mean: target > 0");
  const double current = mean();
  require(current > 0.0, "Distribution::with_mean: base mean must be positive");
  return scaled(target_mean / current);
}

}  // namespace gc
