// Arrival-rate estimation from per-tick measurements.
//
// The simulator hands controllers a raw rate (arrivals / short period);
// these estimators smooth it.  All are causal and O(1).
#pragma once

#include <cstdint>

namespace gc {

class SnapshotWriter;  // cp/snapshot.h
class SnapshotReader;

// Exponentially weighted moving average with smoothing factor `alpha`
// (weight of the newest observation).
class EwmaEstimator {
 public:
  explicit EwmaEstimator(double alpha);

  void observe(double value) noexcept;
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool primed() const noexcept { return primed_; }

  // Checkpoint/restore of the mutable state (value, primed); alpha is
  // configuration and travels with the options, not the snapshot.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

// Stale-telemetry guard for age-stamped observations (DESIGN.md §8.2).
//
// Over a degraded control channel (sim/control_channel) the newest rate
// the controller holds can be arbitrarily old.  The guard compares each
// observation's age against a staleness horizon: while fresh it records
// the rate as last-good and passes it through; past the horizon it holds
// the last-good rate instead and reports a safety margin widened by
// kMarginWiden, so the planner hedges against the drift it cannot
// see.  A horizon of 0 disables the guard entirely — filter() is then the
// identity and margin_multiplier() is exactly 1.0, preserving bit
// identity with unguarded controllers.
struct StalenessOptions {
  // Observation age beyond which telemetry counts as stale; 0 disables
  // the guard (no behavior change vs an unguarded controller).
  double horizon_s = 0.0;
};

class StalenessGuard {
 public:
  // Safety-margin multiplier applied while stale.
  static constexpr double kMarginWiden = 1.25;

  // Throws std::invalid_argument unless horizon_s is finite and >= 0.
  explicit StalenessGuard(double horizon_s);

  // Feeds one age-stamped observation; returns the rate to plan with.
  double filter(double age_s, double rate) noexcept;

  [[nodiscard]] bool stale() const noexcept { return stale_; }
  [[nodiscard]] double margin_multiplier() const noexcept {
    return stale_ ? kMarginWiden : 1.0;
  }
  [[nodiscard]] std::uint64_t stale_ticks() const noexcept { return stale_ticks_; }

  // Checkpoint/restore of the mutable state (last-good rate, stale flag,
  // stale-tick counter); the horizon is configuration.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  double horizon_s_;
  double last_good_ = 0.0;
  bool stale_ = false;
  std::uint64_t stale_ticks_ = 0;
};

}  // namespace gc
