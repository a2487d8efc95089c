#include "cp/control_plane.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "cp/snapshot.h"

namespace gc {

namespace {
// Smoothing factor for the delivered-rate gauge (`cp.rate.smoothed`).
constexpr double kRateEwmaAlpha = 0.2;
}  // namespace

void ControlPlaneOptions::validate() const {
  actuator.validate();
  if (staleness.horizon_s < 0.0) {
    throw std::invalid_argument("ControlPlaneOptions: staleness horizon must be >= 0");
  }
}

ControlPlane::ControlPlane(Controller& controller,
                           const ControlPlaneOptions& options, Rng rng)
    : owned_(nullptr),
      controller_(&controller),
      options_(options),
      actuator_((options.validate(), options.actuator), std::move(rng)),
      rate_ewma_(kRateEwmaAlpha),
      staleness_(options.staleness.horizon_s) {
  lifecycle_.set_expect_acks(options.actuator.enabled);
}

ControlPlane::ControlPlane(std::unique_ptr<Controller> controller,
                           const ControlPlaneOptions& options, Rng rng)
    : owned_(std::move(controller)),
      controller_(owned_.get()),
      options_(options),
      actuator_((options.validate(), options.actuator), std::move(rng)),
      rate_ewma_(kRateEwmaAlpha),
      staleness_(options.staleness.horizon_s) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("ControlPlane: null controller");
  }
  lifecycle_.set_expect_acks(options.actuator.enabled);
}

void ControlPlane::seed_observation(const TelemetryFrame& frame) noexcept {
  latest_ = frame;
}

void ControlPlane::accept_telemetry(const TelemetryFrame& frame) noexcept {
  // Reordered deliveries (an older sample overtaken by a newer one) are
  // discarded: the controller only ever moves forward in time.
  if (frame.sample_time >= latest_.sample_time) {
    latest_ = frame;
    ++telemetry_accepted_;
    rate_ewma_.observe(frame.rate);
  } else {
    ++telemetry_stale_discarded_;
  }
}

ControlContext ControlPlane::make_context(double now, bool safe_mode) const {
  ControlContext ctx;
  ctx.now = now;
  ctx.measured_rate = latest_.rate;
  ctx.serving = latest_.serving;
  ctx.committed = latest_.committed;
  ctx.powered = latest_.powered;
  ctx.available = latest_.available;
  ctx.jobs_in_system = static_cast<std::size_t>(latest_.jobs_in_system);
  ctx.obs_age_s = now - latest_.sample_time;
  ctx.safe_mode = safe_mode;
  if (const auto v = actuator_.acked_value(CommandKind::kTarget)) {
    ctx.acked_target = static_cast<unsigned>(*v);
  }
  if (const auto v = actuator_.acked_value(CommandKind::kSpeed)) {
    ctx.acked_speed = *v;
  }
  return ctx;
}

ControlPlane::Decision ControlPlane::on_tick(double now, bool long_tick,
                                             bool safe_mode) {
  Decision d;
  d.ctx = make_context(now, safe_mode);
  // Observational staleness bookkeeping; never fed to the policy.
  (void)staleness_.filter(d.ctx.obs_age_s, d.ctx.measured_rate);
  last_obs_age_s_ = d.ctx.obs_age_s;

  d.action = long_tick ? controller_->on_long_tick(d.ctx)
                       : controller_->on_short_tick(d.ctx);
  ++ticks_;
  if (long_tick) ++long_ticks_;
  if (d.action.infeasible) ++infeasible_ticks_;

  // Grow capacity before raising speed, same order apply_action uses, so
  // freshly revived servers adopt the new speed too.
  if (d.action.active_target) {
    d.commands.push_back({actuator_.issue(now, CommandKind::kTarget,
                                          static_cast<double>(*d.action.active_target),
                                          era_),
                          /*retransmit=*/false});
    ++commands_issued_;
    lifecycle_.on_issued(now, d.commands.back().frame, d.ctx.obs_age_s);
  }
  if (d.action.speed) {
    d.commands.push_back(
        {actuator_.issue(now, CommandKind::kSpeed, *d.action.speed, era_),
         /*retransmit=*/false});
    ++commands_issued_;
    lifecycle_.on_issued(now, d.commands.back().frame, d.ctx.obs_age_s);
  }
  // Collect retransmissions due now.  Polling after issue means a command
  // superseded this very tick never retransmits, and a just-issued command
  // cannot be due (its first retry deadline is now + ack_timeout > now) —
  // both invariants the in-process simulator's event order relied on.
  retry_buf_.clear();
  actuator_.poll(now, retry_buf_);
  for (const CommandFrame& cmd : retry_buf_) {
    d.commands.push_back({cmd, /*retransmit=*/true});
    lifecycle_.on_retransmit(now, cmd);
  }
  // A lane left without an outstanding command whose newest tracked
  // command was never acked just reconciled (retry budget spent).
  if (actuator_.enabled()) {
    for (int k = 0; k < kNumCommandKinds; ++k) {
      const auto kind = static_cast<CommandKind>(k);
      if (!actuator_.outstanding(kind)) lifecycle_.on_lane_reconciled(now, kind);
    }
  }
  return d;
}

void ControlPlane::on_ack(double now, CommandKind kind, std::uint64_t gen) {
  lifecycle_.on_acked(now, kind, gen);
  actuator_.on_ack(now, kind, gen);
}

void ControlPlane::on_command_applied(double now, CommandKind kind,
                                      std::uint64_t gen) {
  lifecycle_.on_applied(now, kind, gen);
}

std::string ControlPlane::snapshot() const {
  // The lifecycle tracker is deliberately NOT serialized: it is a pure
  // observation of the command stream, and keeping it out of the envelope
  // preserves the snapshot format byte-for-byte (DESIGN.md §14.3).
  SnapshotWriter w;
  // Controller type tag first: restoring into a facade running a different
  // policy would silently misinterpret every following byte, so restore()
  // cross-checks this before touching any state.
  w.str(controller_->name());
  controller_->save_state(w);
  w.f64(latest_.sample_time);
  w.f64(latest_.rate);
  w.u32(latest_.serving);
  w.u32(latest_.committed);
  w.u32(latest_.powered);
  w.u32(latest_.available);
  w.u64(latest_.jobs_in_system);
  rate_ewma_.save(w);
  staleness_.save(w);
  actuator_.save(w);
  w.u32(era_);
  w.u64(ticks_);
  w.u64(long_ticks_);
  w.u64(infeasible_ticks_);
  w.u64(telemetry_accepted_);
  w.u64(telemetry_stale_discarded_);
  w.u64(commands_issued_);
  w.f64(last_obs_age_s_);
  return encode_snapshot(w.payload());
}

void ControlPlane::restore(const std::string& bytes) {
  // The payload must outlive the reader (SnapshotReader views, not owns).
  const std::string payload = decode_snapshot(bytes);
  SnapshotReader r(payload);
  const std::string name = r.str();
  if (name != controller_->name()) {
    throw SnapshotError("control plane: snapshot was taken by controller '" + name +
                        "' but this facade runs '" + controller_->name() + "'");
  }
  controller_->load_state(r);
  latest_.sample_time = r.f64();
  latest_.rate = r.f64();
  latest_.serving = r.u32();
  latest_.committed = r.u32();
  latest_.powered = r.u32();
  latest_.available = r.u32();
  latest_.jobs_in_system = r.u64();
  rate_ewma_.load(r);
  staleness_.load(r);
  actuator_.load(r);
  era_ = r.u32();
  ticks_ = r.u64();
  long_ticks_ = r.u64();
  infeasible_ticks_ = r.u64();
  telemetry_accepted_ = r.u64();
  telemetry_stale_discarded_ = r.u64();
  commands_issued_ = r.u64();
  last_obs_age_s_ = r.f64();
  r.expect_end();
}

CountersSnapshot ControlPlane::counters_snapshot() const {
  CountersSnapshot snap;
  snap.add_counter("cp.ticks", ticks_);
  snap.add_counter("cp.ticks.long", long_ticks_);
  snap.add_counter("cp.ticks.infeasible", infeasible_ticks_);
  snap.add_counter("cp.telemetry.accepted", telemetry_accepted_);
  snap.add_counter("cp.telemetry.stale_discarded", telemetry_stale_discarded_);
  snap.add_counter("cp.telemetry.stale_ticks", staleness_.stale_ticks());
  snap.add_counter("cp.commands.issued", commands_issued_);
  snap.add_counter("cp.commands.retransmits", actuator_.retries());
  snap.add_counter("cp.commands.acked", actuator_.acked());
  snap.add_counter("cp.commands.stale_acks", actuator_.stale_acks());
  snap.add_counter("cp.commands.exhausted", actuator_.exhausted());
  snap.add_gauge("cp.era", static_cast<double>(era_));
  snap.add_gauge("cp.rate.latest", latest_.rate);
  snap.add_gauge("cp.rate.smoothed", rate_ewma_.value());
  snap.add_gauge("cp.obs_age_s", last_obs_age_s_);
  snap.add_gauge("cp.telemetry.stale", staleness_.stale() ? 1.0 : 0.0);
  lifecycle_.counters_into(snap);
  return snap;
}

}  // namespace gc
