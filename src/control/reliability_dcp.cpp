#include "control/reliability_dcp.h"

#include <algorithm>

#include "cp/snapshot.h"
#include "util/assert.h"

namespace gc {

ReliabilityDcpController::ReliabilityDcpController(const Provisioner* provisioner,
                                                   const DcpParams& dcp,
                                                   PredictorKind predictor,
                                                   const ReliabilityOptions& reliability,
                                                   const StalenessOptions& staleness)
    : provisioner_(provisioner), planner_(provisioner, dcp),
      predictor_(make_predictor(predictor, dcp.short_period_s)),
      hysteresis_(dcp.scale_down_patience), reliability_(validated(reliability)),
      detector_(kDetectionDelayS, provisioner->config().max_servers),
      retry_(kBootRetryBudget, dcp.long_period_s),
      guard_(staleness.horizon_s) {
  GC_CHECK(provisioner != nullptr, "ReliabilityDcpController: null provisioner");
}

double ReliabilityDcpController::short_period_s() const {
  return planner_.params().short_period_s;
}
double ReliabilityDcpController::long_period_s() const {
  return planner_.params().long_period_s;
}

ControlAction ReliabilityDcpController::on_short_tick(const ControlContext& ctx) {
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  predictor_->observe(rate);
  const unsigned detected = detector_.observe(ctx.now, ctx.available);
  const double padded =
      rate * planner_.params().safety_margin * guard_.margin_multiplier();
  unsigned serving = std::max(ctx.serving, 1u);
  // Same discipline as the failure-aware short tick: fit the frequency for
  // the planned base fleet so the solved spares buy latency headroom
  // instead of diluting it; follow the real fleet when failures pull
  // serving below the base.
  if (planned_base_ > 0) serving = std::min(serving, planned_base_);
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
  // Re-report the standing plan so the reliability story is on every audit
  // record, not just the long-period ones.
  if (last_plan_.binding != BindingConstraint::kNone) {
    action.explain.solved_spares = static_cast<int>(last_plan_.spares);
    action.explain.availability_est = last_plan_.availability;
    action.explain.binding_constraint =
        static_cast<unsigned>(last_plan_.binding);
  }
  return action;
}

ControlAction ReliabilityDcpController::on_long_tick(const ControlContext& ctx) {
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  const unsigned detected = std::max(detector_.observe(ctx.now, ctx.available), 1u);
  const double predicted =
      std::max(predictor_->predict(planner_.prediction_horizon()), rate);
  // No spare relief here: the solver sizes the pool itself, so the full
  // safety margin stays on the prediction (solved spares cover failures,
  // the margin covers forecast error — distinct risks, both paid for).
  const double padded =
      predicted * planner_.params().safety_margin * guard_.margin_multiplier();

  const ReliablePlan plan = provisioner_->solve_reliable(
      padded, detected, ctx.committed, planner_.params().long_period_s,
      reliability_);
  last_plan_ = plan;
  planned_base_ = plan.base.servers;
  unsigned target = std::min(plan.base.servers + plan.spares, detected);
  target = hysteresis_.propose(ctx.committed, target);
  target = retry_.propose(ctx.now, ctx.committed, target);

  ControlAction action;
  action.active_target = target;
  action.infeasible = !plan.base.feasible;
  action.explain.predicted_rate = predicted;
  action.explain.planning_rate = padded;
  action.explain.safety_margin =
      planner_.params().safety_margin * guard_.margin_multiplier();
  action.explain.planned_servers = plan.base.servers;
  action.explain.detected_available = detected;
  action.explain.solved_spares = static_cast<int>(plan.spares);
  action.explain.availability_est = plan.availability;
  action.explain.binding_constraint = static_cast<unsigned>(plan.binding);
  return action;
}

void ReliabilityDcpController::save_state(SnapshotWriter& w) const {
  predictor_->save(w);
  w.u32(hysteresis_.streak());
  detector_.save(w);
  retry_.save(w);
  guard_.save(w);
  w.u32(planned_base_);
  // The standing ReliablePlan: the short tick re-reports its availability/
  // binding fields into every audit record, so a restored controller must
  // carry the exact plan, not re-solve it.
  w.u32(last_plan_.base.servers);
  w.f64(last_plan_.base.speed);
  w.f64(last_plan_.base.power_watts);
  w.f64(last_plan_.base.response_time_s);
  w.f64(last_plan_.base.utilization);
  w.boolean(last_plan_.base.feasible);
  w.u32(last_plan_.spares);
  w.f64(last_plan_.availability);
  w.f64(last_plan_.objective_w);
  w.u8(static_cast<std::uint8_t>(last_plan_.binding));
}

void ReliabilityDcpController::load_state(SnapshotReader& r) {
  predictor_->load(r);
  hysteresis_.set_streak(r.u32());
  detector_.load(r);
  retry_.load(r);
  guard_.load(r);
  planned_base_ = r.u32();
  last_plan_.base.servers = r.u32();
  last_plan_.base.speed = r.f64();
  last_plan_.base.power_watts = r.f64();
  last_plan_.base.response_time_s = r.f64();
  last_plan_.base.utilization = r.f64();
  last_plan_.base.feasible = r.boolean();
  last_plan_.spares = r.u32();
  last_plan_.availability = r.f64();
  last_plan_.objective_w = r.f64();
  const std::uint8_t binding = r.u8();
  if (binding > static_cast<std::uint8_t>(BindingConstraint::kCapacity)) {
    throw SnapshotError("reliability: binding constraint out of range in snapshot");
  }
  last_plan_.binding = static_cast<BindingConstraint>(binding);
}

}  // namespace gc
