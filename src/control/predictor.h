// Load predictors for the DCP long period.
//
// A predictor turns the recent history of measured rates into a single
// per-horizon load figure the provisioner plans against.  The ablation in
// bench/fig9_predictors compares them on the energy-vs-violation frontier.
#pragma once

#include <deque>
#include <memory>
#include <string>

namespace gc {

class SnapshotWriter;  // cp/snapshot.h
class SnapshotReader;

class LoadPredictor {
 public:
  virtual ~LoadPredictor() = default;

  // Feed one measurement (rate over the last short period).
  virtual void observe(double rate) = 0;

  // Predicted load over the next `horizon_s` seconds (a scalar the
  // provisioner plans against; conservative predictors return peak-ish
  // values, aggressive ones mean-ish values).
  [[nodiscard]] virtual double predict(double horizon_s) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Checkpoint/restore of the observation history (cp/snapshot.h): a
  // restored predictor must predict exactly what the saved one would.
  // Every shipped predictor implements both; the built-in kinds write
  // their mutable state only (window sizes and alphas are configuration).
  virtual void save(SnapshotWriter& w) const = 0;
  virtual void load(SnapshotReader& r) = 0;
};

enum class PredictorKind : int {
  kLastValue = 0,
  kEwma = 1,
  kSlidingMax = 2,
  kLinearTrend = 3,
};
[[nodiscard]] const char* to_string(PredictorKind kind) noexcept;

// Factory.  `sample_period_s` is the spacing of observe() calls (the short
// control period); predictors use it to convert horizons into sample counts.
[[nodiscard]] std::unique_ptr<LoadPredictor> make_predictor(PredictorKind kind,
                                                            double sample_period_s);

// -- Implementations (exposed for unit tests) -------------------------------

class LastValuePredictor final : public LoadPredictor {
 public:
  void observe(double rate) override { last_ = rate; }
  [[nodiscard]] double predict(double /*horizon_s*/) const override { return last_; }
  [[nodiscard]] std::string name() const override { return "last-value"; }
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  double last_ = 0.0;
};

class EwmaPredictor final : public LoadPredictor {
 public:
  explicit EwmaPredictor(double alpha);
  void observe(double rate) override;
  [[nodiscard]] double predict(double horizon_s) const override;
  [[nodiscard]] std::string name() const override;
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

// Max over the last `window` observations — robust against flash crowds at
// the cost of over-provisioning after them.
class SlidingMaxPredictor final : public LoadPredictor {
 public:
  explicit SlidingMaxPredictor(std::size_t window);
  void observe(double rate) override;
  [[nodiscard]] double predict(double horizon_s) const override;
  [[nodiscard]] std::string name() const override;
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  std::size_t window_;
  std::deque<double> history_;
};

// Least-squares line over the last `window` observations, extrapolated to
// the end of the horizon (clamped at 0).  Tracks diurnal ramps.
class LinearTrendPredictor final : public LoadPredictor {
 public:
  LinearTrendPredictor(std::size_t window, double sample_period_s);
  void observe(double rate) override;
  [[nodiscard]] double predict(double horizon_s) const override;
  [[nodiscard]] std::string name() const override;
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  std::size_t window_;
  double sample_period_;
  std::deque<double> history_;
};

}  // namespace gc
