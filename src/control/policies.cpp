#include "control/policies.h"

#include <algorithm>
#include <stdexcept>

#include "cp/snapshot.h"
#include "util/assert.h"
#include "workload/rate_profile.h"

namespace gc {
namespace {

// VOVF-only runs every server at full speed; reuse the same config but with
// a one-level ladder at f_max.
ClusterConfig pinned_full_speed(ClusterConfig config) {
  config.ladder = FrequencyLadder({config.ladder.is_continuous()
                                       ? 1.0
                                       : config.ladder.f_max_ghz()});
  return config;
}

}  // namespace

const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kNpm: return "npm";
    case PolicyKind::kDvfsOnly: return "dvfs-only";
    case PolicyKind::kVovfOnly: return "vovf-only";
    case PolicyKind::kCombinedDcp: return "combined-dcp";
    case PolicyKind::kCombinedSinglePeriod: return "combined-single";
    case PolicyKind::kOracle: return "oracle";
    case PolicyKind::kThreshold: return "threshold";
    case PolicyKind::kDcpFailureAware: return "dcp-failure-aware";
    case PolicyKind::kDcpReliability: return "dcp-reliability";
  }
  return "?";
}

std::unique_ptr<Controller> make_policy(PolicyKind kind, const Provisioner* provisioner,
                                        const PolicyOptions& options) {
  GC_CHECK(provisioner != nullptr, "make_policy: null provisioner");
  switch (kind) {
    case PolicyKind::kNpm:
      return std::make_unique<NpmController>(provisioner, options);
    case PolicyKind::kDvfsOnly:
      return std::make_unique<DvfsOnlyController>(provisioner, options);
    case PolicyKind::kVovfOnly:
      return std::make_unique<VovfOnlyController>(provisioner, options);
    case PolicyKind::kCombinedDcp:
      return std::make_unique<CombinedDcpController>(provisioner, options);
    case PolicyKind::kCombinedSinglePeriod:
      return std::make_unique<CombinedSinglePeriodController>(provisioner, options);
    case PolicyKind::kOracle:
      throw std::invalid_argument(
          "make_policy: the oracle needs the profile; use make_oracle_policy");
    case PolicyKind::kThreshold:
      return std::make_unique<ThresholdController>(provisioner, options);
    case PolicyKind::kDcpFailureAware:
      return std::make_unique<FailureAwareDcpController>(
          provisioner, options.dcp, options.predictor, options.staleness);
    case PolicyKind::kDcpReliability:
      return std::make_unique<ReliabilityDcpController>(
          provisioner, options.dcp, options.predictor, options.reliability,
          options.staleness);
  }
  throw std::invalid_argument("make_policy: unknown policy kind");
}

std::unique_ptr<Controller> make_oracle_policy(const Provisioner* provisioner,
                                               const PolicyOptions& options,
                                               std::shared_ptr<const RateProfile> profile) {
  GC_CHECK(provisioner != nullptr, "make_oracle_policy: null provisioner");
  return std::make_unique<OracleController>(provisioner, options, std::move(profile));
}

// -- NPM ----------------------------------------------------------------------

NpmController::NpmController(const Provisioner* provisioner, const PolicyOptions& options)
    : provisioner_(provisioner), dcp_(options.dcp) {
  dcp_.validate();
}

double NpmController::short_period_s() const { return dcp_.short_period_s; }
double NpmController::long_period_s() const { return dcp_.long_period_s; }

ControlAction NpmController::on_short_tick(const ControlContext& /*ctx*/) { return {}; }

ControlAction NpmController::on_long_tick(const ControlContext& /*ctx*/) {
  // Idempotent: everything on at full speed.
  ControlAction action;
  action.active_target = provisioner_->config().max_servers;
  action.speed = 1.0;
  action.explain.planned_servers = provisioner_->config().max_servers;
  return action;
}

// -- DVFS-only ------------------------------------------------------------------

DvfsOnlyController::DvfsOnlyController(const Provisioner* provisioner,
                                       const PolicyOptions& options)
    : provisioner_(provisioner), dcp_(options.dcp), smoother_(0.5) {
  dcp_.validate();
}

double DvfsOnlyController::short_period_s() const { return dcp_.short_period_s; }
double DvfsOnlyController::long_period_s() const { return dcp_.long_period_s; }

ControlAction DvfsOnlyController::on_short_tick(const ControlContext& ctx) {
  smoother_.observe(ctx.measured_rate);
  const double predicted = smoother_.predict(0.0);
  const double padded = predicted * dcp_.safety_margin;
  ControlAction action;
  const OperatingPoint pt =
      provisioner_->best_speed_for(padded, provisioner_->config().max_servers);
  action.speed = pt.speed;
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = predicted;
  action.explain.planning_rate = padded;
  action.explain.safety_margin = dcp_.safety_margin;
  action.explain.planned_servers = provisioner_->config().max_servers;
  return action;
}

ControlAction DvfsOnlyController::on_long_tick(const ControlContext& /*ctx*/) {
  ControlAction action;
  action.active_target = provisioner_->config().max_servers;
  return action;
}

void DvfsOnlyController::save_state(SnapshotWriter& w) const { smoother_.save(w); }

void DvfsOnlyController::load_state(SnapshotReader& r) { smoother_.load(r); }

// -- VOVF-only ------------------------------------------------------------------

VovfOnlyController::VovfOnlyController(const Provisioner* provisioner,
                                       const PolicyOptions& options)
    : full_speed_provisioner_(pinned_full_speed(provisioner->config())),
      planner_(&full_speed_provisioner_, options.dcp),
      predictor_(make_predictor(options.predictor, options.dcp.short_period_s)),
      hysteresis_(options.dcp.scale_down_patience) {}

double VovfOnlyController::short_period_s() const {
  return planner_.params().short_period_s;
}
double VovfOnlyController::long_period_s() const { return planner_.params().long_period_s; }

ControlAction VovfOnlyController::on_short_tick(const ControlContext& ctx) {
  predictor_->observe(ctx.measured_rate);
  ControlAction action;
  action.speed = 1.0;
  return action;
}

ControlAction VovfOnlyController::on_long_tick(const ControlContext& ctx) {
  const double predicted =
      std::max(predictor_->predict(planner_.prediction_horizon()), ctx.measured_rate);
  const OperatingPoint pt = planner_.plan_point(predicted);
  ControlAction action;
  action.active_target = hysteresis_.propose(ctx.committed, pt.servers);
  action.speed = 1.0;
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = predicted;
  action.explain.planning_rate = predicted * planner_.params().safety_margin;
  action.explain.safety_margin = planner_.params().safety_margin;
  action.explain.planned_servers = pt.servers;
  return action;
}

// -- Combined (DCP) --------------------------------------------------------------

CombinedDcpController::CombinedDcpController(const Provisioner* provisioner,
                                             const PolicyOptions& options)
    : provisioner_(provisioner), planner_(provisioner, options.dcp),
      predictor_(make_predictor(options.predictor, options.dcp.short_period_s)),
      hysteresis_(options.dcp.scale_down_patience),
      backlog_aware_(options.backlog_aware), guard_(options.staleness.horizon_s) {}

double CombinedDcpController::short_period_s() const {
  return planner_.params().short_period_s;
}
double CombinedDcpController::long_period_s() const {
  return planner_.params().long_period_s;
}

ControlAction CombinedDcpController::on_short_tick(const ControlContext& ctx) {
  // With fresh telemetry filter() is the identity and the multiplier 1.0,
  // so the unguarded arithmetic (and its bits) is preserved; past the
  // staleness horizon the last-good rate is held and the margin widened.
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  predictor_->observe(rate);
  // Fit the frequency to the capacity that is actually serving right now.
  const double padded =
      rate * planner_.params().safety_margin * guard_.margin_multiplier();
  const unsigned serving = std::max(ctx.serving, 1u);
  ControlAction action;
  OperatingPoint pt;
  if (backlog_aware_) {
    pt = planner_.plan_speed_with_backlog(padded, serving,
                                          static_cast<double>(ctx.jobs_in_system),
                                          planner_.params().short_period_s);
  } else {
    pt = planner_.plan_speed(padded, serving);
  }
  action.speed = pt.speed;
  action.infeasible = !pt.feasible;
  action.explain.planning_rate = padded;
  action.explain.safety_margin =
      planner_.params().safety_margin * guard_.margin_multiplier();
  action.explain.planned_servers = serving;
  return action;
}

ControlAction CombinedDcpController::on_long_tick(const ControlContext& ctx) {
  const double rate = guard_.filter(ctx.obs_age_s, ctx.measured_rate);
  const double predicted =
      std::max(predictor_->predict(planner_.prediction_horizon()), rate) *
      guard_.margin_multiplier();
  const OperatingPoint pt = planner_.plan_point(predicted);
  ControlAction action;
  action.active_target = hysteresis_.propose(ctx.committed, pt.servers);
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = predicted;
  action.explain.planning_rate = predicted * planner_.params().safety_margin;
  action.explain.safety_margin = planner_.params().safety_margin;
  action.explain.planned_servers = pt.servers;
  // Speed is corrected by the following short tick (same timestamp).
  return action;
}

// -- Oracle (clairvoyant Combined/DCP) --------------------------------------------

void VovfOnlyController::save_state(SnapshotWriter& w) const {
  predictor_->save(w);
  w.u32(hysteresis_.streak());
}

void VovfOnlyController::load_state(SnapshotReader& r) {
  predictor_->load(r);
  hysteresis_.set_streak(r.u32());
}

void CombinedDcpController::save_state(SnapshotWriter& w) const {
  predictor_->save(w);
  w.u32(hysteresis_.streak());
  guard_.save(w);
}

void CombinedDcpController::load_state(SnapshotReader& r) {
  predictor_->load(r);
  hysteresis_.set_streak(r.u32());
  guard_.load(r);
}

OracleController::OracleController(const Provisioner* provisioner,
                                   const PolicyOptions& options,
                                   std::shared_ptr<const RateProfile> profile)
    : provisioner_(provisioner), planner_(provisioner, options.dcp),
      profile_(std::move(profile)),
      hysteresis_(options.dcp.scale_down_patience) {
  GC_CHECK(profile_ != nullptr, "OracleController: null profile");
}

double OracleController::short_period_s() const { return planner_.params().short_period_s; }
double OracleController::long_period_s() const { return planner_.params().long_period_s; }

ControlAction OracleController::on_short_tick(const ControlContext& ctx) {
  // Perfect knowledge of the *rate*; arrivals are still stochastic, so the
  // safety margin stays.
  const double truth = profile_->rate(ctx.now);
  ControlAction action;
  const OperatingPoint pt = planner_.plan_speed(
      truth * planner_.params().safety_margin, std::max(ctx.serving, 1u));
  action.speed = pt.speed;
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = truth;
  action.explain.planning_rate = truth * planner_.params().safety_margin;
  action.explain.safety_margin = planner_.params().safety_margin;
  action.explain.planned_servers = std::max(ctx.serving, 1u);
  return action;
}

ControlAction OracleController::on_long_tick(const ControlContext& ctx) {
  const double horizon = planner_.prediction_horizon();
  const double peak = profile_->max_rate(ctx.now, ctx.now + horizon);
  const OperatingPoint pt = planner_.plan_point(peak);
  ControlAction action;
  action.active_target = hysteresis_.propose(ctx.committed, pt.servers);
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = peak;
  action.explain.planning_rate = peak * planner_.params().safety_margin;
  action.explain.safety_margin = planner_.params().safety_margin;
  action.explain.planned_servers = pt.servers;
  return action;
}

// -- Threshold autoscaler ----------------------------------------------------------

ThresholdController::ThresholdController(const Provisioner* provisioner,
                                         const PolicyOptions& options,
                                         double scale_out_util, double scale_in_util)
    : provisioner_(provisioner), dcp_(options.dcp), scale_out_util_(scale_out_util),
      scale_in_util_(scale_in_util), smoother_(0.5) {
  dcp_.validate();
  if (!(0.0 < scale_in_util && scale_in_util < scale_out_util && scale_out_util <= 1.0)) {
    throw std::invalid_argument(
        "ThresholdController: need 0 < scale_in < scale_out <= 1");
  }
}

double ThresholdController::short_period_s() const { return dcp_.short_period_s; }
double ThresholdController::long_period_s() const { return dcp_.long_period_s; }

ControlAction ThresholdController::on_short_tick(const ControlContext& ctx) {
  smoother_.observe(ctx.measured_rate);
  ControlAction action;
  action.speed = 1.0;  // rule-based autoscalers do not touch DVFS
  return action;
}

ControlAction ThresholdController::on_long_tick(const ControlContext& ctx) {
  const double rate = smoother_.predict(0.0);
  const unsigned serving = std::max(ctx.serving, 1u);
  const double util =
      rate / (static_cast<double>(serving) * provisioner_->config().mu_max);
  ControlAction action;
  if (util > scale_out_util_) {
    action.active_target =
        std::min(ctx.committed + 1, provisioner_->config().max_servers);
  } else if (util < scale_in_util_ && ctx.committed > 1) {
    action.active_target = ctx.committed - 1;
  }
  action.speed = 1.0;
  action.explain.predicted_rate = rate;
  action.explain.planning_rate = rate;
  action.explain.planned_servers =
      action.active_target ? *action.active_target : ctx.committed;
  return action;
}

// -- Pinned operating point -------------------------------------------------------

ControlAction PinnedController::on_short_tick(const ControlContext& /*ctx*/) { return {}; }

ControlAction PinnedController::on_long_tick(const ControlContext& /*ctx*/) {
  ControlAction action;
  action.active_target = servers_;
  action.speed = speed_;
  return action;
}

// -- Combined, single control period ---------------------------------------------

void OracleController::save_state(SnapshotWriter& w) const {
  w.u32(hysteresis_.streak());
}

void OracleController::load_state(SnapshotReader& r) {
  hysteresis_.set_streak(r.u32());
}

void ThresholdController::save_state(SnapshotWriter& w) const {
  smoother_.save(w);
}

void ThresholdController::load_state(SnapshotReader& r) { smoother_.load(r); }

CombinedSinglePeriodController::CombinedSinglePeriodController(
    const Provisioner* provisioner, const PolicyOptions& options)
    : provisioner_(provisioner), dcp_(options.dcp),
      backlog_aware_(options.backlog_aware) {
  dcp_.validate();
}

// One timescale: both decisions every long period.  The short tick exists
// only because the simulator requires one; it does nothing.
double CombinedSinglePeriodController::short_period_s() const {
  return dcp_.long_period_s;
}
double CombinedSinglePeriodController::long_period_s() const {
  return dcp_.long_period_s;
}

ControlAction CombinedSinglePeriodController::on_short_tick(const ControlContext&) {
  return {};
}

ControlAction CombinedSinglePeriodController::on_long_tick(const ControlContext& ctx) {
  // Reactive: last measured rate, no boot-delay lookahead, no hysteresis.
  double planning_rate = ctx.measured_rate * dcp_.safety_margin;
  if (backlog_aware_) {
    // Budget capacity to drain queue excess within a few SLA periods
    // (extension; see DcpPlanner::plan_speed_with_backlog for the
    // Little's-law target).  The horizon is deliberately aggressive — a
    // reactive controller's queues otherwise persist for many periods.
    const double on_target = planning_rate * provisioner_->config().t_ref_s;
    const double excess =
        std::max(static_cast<double>(ctx.jobs_in_system) - on_target, 0.0);
    planning_rate += excess / (4.0 * provisioner_->config().t_ref_s);
  }
  const OperatingPoint pt = provisioner_->solve(planning_rate);
  ControlAction action;
  action.active_target = pt.servers;
  action.speed = pt.speed;
  action.infeasible = !pt.feasible;
  action.explain.predicted_rate = ctx.measured_rate;
  action.explain.planning_rate = planning_rate;
  action.explain.safety_margin = dcp_.safety_margin;
  action.explain.planned_servers = pt.servers;
  return action;
}

}  // namespace gc
