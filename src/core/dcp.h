// Double Control Periods (DCP) planning math.
//
// VOVF transitions are slow (a server boot takes tens of seconds to
// minutes) and costly (full power, zero service).  The paper's remedy is
// two timescales:
//
//   * every long period T_L: re-provision the server count using the load
//     *predicted* over the next horizon — which must include the boot
//     delay, so capacity ordered now is ready when the load arrives — with
//     a multiplicative safety margin and scale-down hysteresis;
//   * every short period T_S (T_S << T_L): re-fit only the frequency to
//     the currently observed load, with the server count pinned.
//
// `DcpPlanner` is stateless with respect to time; the hysteresis gate and
// period bookkeeping live in the controller (control/policies.h).
#pragma once

#include "core/cluster_config.h"
#include "core/operating_point.h"
#include "core/provisioner.h"

namespace gc {

struct DcpParams {
  double long_period_s = 300.0;
  double short_period_s = 30.0;
  // Predicted load is multiplied by this before solving; absorbs predictor
  // error and the mean-vs-peak gap inside a long period.
  double safety_margin = 1.15;
  // Number of consecutive long periods that must request a smaller m
  // before any server is switched off (1 = shrink immediately).
  unsigned scale_down_patience = 2;

  void validate() const;
};

class DcpPlanner {
 public:
  DcpPlanner(const Provisioner* provisioner, DcpParams params);

  [[nodiscard]] const DcpParams& params() const noexcept { return params_; }

  // The prediction horizon a long-period decision must cover: the period
  // itself plus the boot delay of the capacity it orders.
  [[nodiscard]] double prediction_horizon() const noexcept;

  // Long-period decision: the operating point (target active-server count
  // and speed) for predicted rate `predicted_rate`, already a per-horizon
  // aggregate (e.g. the predictor's max or mean — the caller chooses the
  // predictor).  Controllers that must report infeasibility
  // (ControlAction::infeasible) read `feasible` off the returned point.
  [[nodiscard]] OperatingPoint plan_point(double predicted_rate) const;

  // Short-period decision: cheapest feasible common speed for the servers
  // that are actually serving right now.
  [[nodiscard]] OperatingPoint plan_speed(double current_rate, unsigned serving) const;

  // Backlog-aware variant: also budgets capacity to drain excess queued
  // work within `drain_horizon_s`.  Under the M/M/1 design model, Little's
  // law puts the on-target job count at rate * t_ref; anything above that
  // is backlog the plain short tick would ignore (it only sees the arrival
  // rate), which is how a reactive controller stays saturated after a
  // burst.  The effective planning rate becomes
  //     rate + max(0, jobs_in_system - rate * t_ref) / drain_horizon_s.
  [[nodiscard]] OperatingPoint plan_speed_with_backlog(double current_rate,
                                                       unsigned serving,
                                                       double jobs_in_system,
                                                       double drain_horizon_s) const;

 private:
  const Provisioner* provisioner_;  // non-owning; outlives the planner
  DcpParams params_;
};

// Scale-down hysteresis: `propose` returns the gated target.  Increases
// pass through immediately (the guarantee is at risk); decreases must be
// proposed `patience` consecutive times.
class HysteresisGate {
 public:
  explicit HysteresisGate(unsigned patience);

  [[nodiscard]] unsigned propose(unsigned current, unsigned target);
  void reset() noexcept { streak_ = 0; }

  // The mutable state, exposed for checkpoint/restore (cp/snapshot.h);
  // core/ stays free of cp/ includes, so the gate serializes via plain
  // accessors rather than save/load methods.
  [[nodiscard]] unsigned streak() const noexcept { return streak_; }
  void set_streak(unsigned streak) noexcept { streak_ = streak; }

 private:
  unsigned patience_;
  unsigned streak_ = 0;
};

}  // namespace gc
