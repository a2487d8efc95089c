// Random variate generators over gc::Rng.
//
// We implement our own (instead of <random>) because libstdc++ makes no
// cross-version reproducibility promise for its distributions, and the
// experiment harness wants traces that are stable across toolchains.
#pragma once

#include <memory>
#include <string>

#include "stats/rng.h"

namespace gc {

// Exponential with rate `lambda` (mean 1/lambda).
class Exponential {
 public:
  explicit Exponential(double lambda);
  [[nodiscard]] double sample(Rng& rng) const noexcept;
  [[nodiscard]] double mean() const noexcept { return 1.0 / lambda_; }
  [[nodiscard]] double rate() const noexcept { return lambda_; }

 private:
  double lambda_;
};

// Bounded Pareto on [lo, hi] with tail index `alpha` — the classic model of
// heavy-tailed web request sizes (Crovella & Bestavros).
class BoundedPareto {
 public:
  BoundedPareto(double alpha, double lo, double hi);
  [[nodiscard]] double sample(Rng& rng) const noexcept;
  [[nodiscard]] double mean() const noexcept;

 private:
  double alpha_, lo_, hi_;
};

// Degenerate point mass (deterministic service).
class Deterministic {
 public:
  explicit Deterministic(double value);
  [[nodiscard]] double sample(Rng& /*rng*/) const noexcept { return value_; }
  [[nodiscard]] double mean() const noexcept { return value_; }

 private:
  double value_;
};

// Type-erased positive-valued distribution used for job sizes.
class Distribution {
 public:
  template <typename D>
  explicit Distribution(D dist, std::string name)
      : impl_(std::make_shared<Model<D>>(std::move(dist))), name_(std::move(name)) {}

  [[nodiscard]] double sample(Rng& rng) const { return impl_->sample(rng); }
  [[nodiscard]] double mean() const { return impl_->mean(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Factory helpers with canonical names.
  [[nodiscard]] static Distribution exponential(double rate);
  [[nodiscard]] static Distribution deterministic(double value);
  [[nodiscard]] static Distribution bounded_pareto(double alpha, double lo, double hi);

  // This distribution with every sample multiplied by `factor` (> 0) —
  // e.g. renormalizing a heavy-tailed law to a target mean.
  [[nodiscard]] Distribution scaled(double factor) const;
  [[nodiscard]] Distribution with_mean(double target_mean) const;

 private:
  struct Concept {
    virtual ~Concept() = default;
    [[nodiscard]] virtual double sample(Rng& rng) const = 0;
    [[nodiscard]] virtual double mean() const = 0;
  };
  template <typename D>
  struct Model final : Concept {
    explicit Model(D d) : dist(std::move(d)) {}
    [[nodiscard]] double sample(Rng& rng) const override { return dist.sample(rng); }
    [[nodiscard]] double mean() const override { return dist.mean(); }
    D dist;
  };

  std::shared_ptr<const Concept> impl_;
  std::string name_;
};

}  // namespace gc
