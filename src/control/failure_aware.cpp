#include "control/failure_aware.h"

#include <algorithm>

#include "cp/snapshot.h"
#include "util/assert.h"

namespace gc {

// -- FailureDetector ---------------------------------------------------------

FailureDetector::FailureDetector(double detection_delay_s, unsigned initial_available)
    : delay_(detection_delay_s), detected_(initial_available) {
  GC_CHECK(detection_delay_s >= 0.0, "FailureDetector: negative delay");
  window_.push_back(Sample{0.0, initial_available});
}

unsigned FailureDetector::observe(double now, unsigned available) {
  window_.push_back(Sample{now, available});
  // Drop samples that aged out of the detection window, but always keep at
  // least the newest one.
  while (window_.size() > 1 && window_.front().time < now - delay_) {
    window_.pop_front();
  }
  unsigned max_avail = 0;
  for (const Sample& s : window_) max_avail = std::max(max_avail, s.available);
  // Repairs are announced instantly: never report below the current truth.
  detected_ = std::max(max_avail, available);
  return detected_;
}

void FailureDetector::save(SnapshotWriter& w) const {
  w.u32(detected_);
  w.u32(static_cast<std::uint32_t>(window_.size()));
  for (const Sample& s : window_) {
    w.f64(s.time);
    w.u32(s.available);
  }
}

void FailureDetector::load(SnapshotReader& r) {
  detected_ = r.u32();
  const std::uint32_t n = r.u32();
  if (n == 0) {
    throw SnapshotError("detector: snapshot window must hold >= 1 sample");
  }
  window_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const double time = r.f64();
    const unsigned available = r.u32();
    window_.push_back(Sample{time, available});
  }
}

// -- BootRetryGate -----------------------------------------------------------

BootRetryGate::BootRetryGate(unsigned budget, double backoff_s)
    : budget_(budget), backoff_s_(backoff_s) {
  GC_CHECK(budget >= 1, "BootRetryGate: budget must be >= 1");
  GC_CHECK(backoff_s >= 0.0, "BootRetryGate: negative backoff");
}

unsigned BootRetryGate::propose(double now, unsigned committed, unsigned target) {
  // Boots landing between proposals is progress: the deficit is a normal
  // ramp (the target outruns the boot delay), not hung boot commands, so
  // the episode resets.  Only a committed count that refuses to rise keeps
  // the episode (and its backoff) alive.
  const bool progressed = committed > last_committed_;
  last_committed_ = committed;
  if (target <= committed) {
    // Deficit closed (or the plan shrank): episode over.
    attempts_ = 0;
    in_deficit_ = false;
    return target;
  }
  if (progressed || !in_deficit_) {
    // New shortfall: assert immediately, first retry after one backoff.
    in_deficit_ = true;
    attempts_ = 1;
    next_retry_ = now + backoff_s_;
    return target;
  }
  if (now + 1e-9 >= next_retry_) {
    if (attempts_ >= budget_) return committed;  // budget spent: degrade
    ++attempts_;
    // Exponential backoff: the k-th retry waits 2^(k-1) backoffs.
    const double wait =
        backoff_s_ * static_cast<double>(1u << std::min(attempts_ - 1, 20u));
    next_retry_ = now + wait;
    return target;
  }
  return committed;  // between retries: no new boot commands
}

void BootRetryGate::save(SnapshotWriter& w) const {
  w.u32(attempts_);
  w.f64(next_retry_);
  w.boolean(in_deficit_);
  w.u32(last_committed_);
}

void BootRetryGate::load(SnapshotReader& r) {
  attempts_ = r.u32();
  next_retry_ = r.f64();
  in_deficit_ = r.boolean();
  last_committed_ = r.u32();
}

// -- FailureAwareDcpController ------------------------------------------------

FailureAwareDcpController::FailureAwareDcpController(const Provisioner* provisioner,
                                                     const DcpParams& dcp,
                                                     PredictorKind predictor,
                                                     const StalenessOptions& staleness)
    : provisioner_(provisioner), planner_(provisioner, dcp),
      predictor_(make_predictor(predictor, dcp.short_period_s)),
      hysteresis_(dcp.scale_down_patience),
      detector_(kDetectionDelayS, provisioner->config().max_servers),
      retry_(kBootRetryBudget, dcp.long_period_s),
      guard_(staleness.horizon_s) {
  GC_CHECK(provisioner != nullptr, "FailureAwareDcpController: null provisioner");
}

double FailureAwareDcpController::short_period_s() const {
  return planner_.params().short_period_s;
}
double FailureAwareDcpController::long_period_s() const {
  return planner_.params().long_period_s;
}

ControlAction FailureAwareDcpController::on_short_tick(const ControlContext& ctx) {
  // Stale-telemetry guard: fresh observations pass through bit-identically
  // (multiplier exactly 1.0); past the horizon the last-good rate is held
  // and the margin widened (control/estimator.h).
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  predictor_->observe(rate);
  const unsigned detected = detector_.observe(ctx.now, ctx.available);
  const double padded =
      rate * planner_.params().safety_margin * guard_.margin_multiplier();
  unsigned serving = std::max(ctx.serving, 1u);
  // Fit the frequency for the planned base fleet, not the spared one:
  // speed sized for `base` servers spread over `serving >= base` servers
  // leaves every queue strictly faster than the design point, so the
  // spares buy latency headroom instead of diluting it.  When failures
  // pull serving below the base the fit follows the real fleet.
  if (planned_base_ > 0) serving = std::min(serving, planned_base_);
  // Backlog-aware speed fitting drains failover bursts: a crash dumps its
  // victims' queues onto the survivors, which the plain rate signal cannot
  // see.
  const OperatingPoint pt = planner_.plan_speed_with_backlog(
      padded, serving, static_cast<double>(ctx.jobs_in_system),
      planner_.params().short_period_s);
  ControlAction action;
  action.speed = pt.speed;
  action.infeasible = !pt.feasible;
  action.explain.planning_rate = padded;
  action.explain.safety_margin =
      planner_.params().safety_margin * guard_.margin_multiplier();
  action.explain.planned_servers = serving;
  action.explain.detected_available = detected;
  return action;
}

ControlAction FailureAwareDcpController::on_long_tick(const ControlContext& ctx) {
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  const unsigned detected = std::max(detector_.observe(ctx.now, ctx.available), 1u);
  const double predicted =
      std::max(predictor_->predict(planner_.prediction_horizon()), rate);
  // The spare already over-provisions by ~kSpareCapacityFraction, and
  // absent a crash it absorbs prediction error exactly like the
  // multiplicative margin would — so the margin is relieved by the spare's
  // share instead of stacking on top of it (clamped at 1: never plan below
  // the prediction itself).
  const double relieved_margin =
      std::max(1.0, planner_.params().safety_margin / (1.0 + kSpareCapacityFraction));
  const double padded = predicted * relieved_margin * guard_.margin_multiplier();

  // Plan within the fleet the detector believes is alive.
  const OperatingPoint pt = provisioner_->solve_capped(padded, detected);
  planned_base_ = pt.servers;
  unsigned target = pt.servers;
  if (pt.feasible) {
    const auto spare = static_cast<unsigned>(
        std::ceil(kSpareCapacityFraction * static_cast<double>(pt.servers)));
    target = std::min(target + spare, detected);
  }
  target = hysteresis_.propose(ctx.committed, target);
  target = retry_.propose(ctx.now, ctx.committed, target);

  ControlAction action;
  action.active_target = target;
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = predicted;
  action.explain.planning_rate = padded;
  action.explain.safety_margin = relieved_margin * guard_.margin_multiplier();
  action.explain.planned_servers = pt.servers;
  action.explain.detected_available = detected;
  return action;
}

void FailureAwareDcpController::save_state(SnapshotWriter& w) const {
  predictor_->save(w);
  w.u32(hysteresis_.streak());
  detector_.save(w);
  retry_.save(w);
  guard_.save(w);
  w.u32(planned_base_);
}

void FailureAwareDcpController::load_state(SnapshotReader& r) {
  predictor_->load(r);
  hysteresis_.set_streak(r.u32());
  detector_.load(r);
  retry_.load(r);
  guard_.load(r);
  planned_base_ = r.u32();
}

}  // namespace gc
