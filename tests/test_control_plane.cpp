// Unit tests for the ControlPlane facade (cp/control_plane.h): the
// newest-wins observation store, context construction, command stamping
// order, era bookkeeping, the ack/retry integration and the cp.* metric
// snapshot.  Everything here drives the facade directly — no simulator —
// which is the point of the extraction.
#include "cp/control_plane.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/prometheus.h"

namespace gc {
namespace {

// A policy whose next action is scripted by the test; records the contexts
// it was shown.
class ScriptedController final : public Controller {
 public:
  ControlAction next;
  std::vector<ControlContext> seen;

  [[nodiscard]] double short_period_s() const override { return 10.0; }
  [[nodiscard]] double long_period_s() const override { return 60.0; }
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override {
    seen.push_back(ctx);
    return next;
  }
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override {
    seen.push_back(ctx);
    return next;
  }
  [[nodiscard]] const char* name() const override { return "scripted"; }
};

TelemetryFrame frame_at(double t, double rate = 5.0, unsigned serving = 4) {
  TelemetryFrame f;
  f.sample_time = t;
  f.rate = rate;
  f.serving = serving;
  f.committed = serving;
  f.powered = serving;
  f.available = serving;
  f.jobs_in_system = 2;
  return f;
}

ControlPlane make_plane(ScriptedController& controller,
                        ControlPlaneOptions options = {}) {
  return ControlPlane(controller, options, Rng(/*seed=*/7, /*stream=*/14));
}

TEST(ControlPlane, NewestWinsObservationStore) {
  ScriptedController controller;
  ControlPlane cp = make_plane(controller);
  cp.accept_telemetry(frame_at(10.0, 3.0));
  cp.accept_telemetry(frame_at(20.0, 7.0));
  // A reordered (older) delivery must not move the view backwards.
  cp.accept_telemetry(frame_at(15.0, 99.0));
  EXPECT_DOUBLE_EQ(cp.latest_observation().sample_time, 20.0);
  EXPECT_DOUBLE_EQ(cp.latest_observation().rate, 7.0);
  EXPECT_EQ(cp.telemetry_accepted(), 2u);
  EXPECT_EQ(cp.telemetry_stale_discarded(), 1u);
}

TEST(ControlPlane, SeedObservationDoesNotCountAsDelivery) {
  ScriptedController controller;
  ControlPlane cp = make_plane(controller);
  cp.seed_observation(frame_at(0.0, 11.0));
  EXPECT_EQ(cp.telemetry_accepted(), 0u);
  EXPECT_DOUBLE_EQ(cp.latest_observation().rate, 11.0);
}

TEST(ControlPlane, MakeContextDerivesObservationAge) {
  ScriptedController controller;
  ControlPlane cp = make_plane(controller);
  cp.accept_telemetry(frame_at(5.0, 4.5, /*serving=*/6));
  const ControlContext ctx = cp.make_context(/*now=*/8.0, /*safe_mode=*/true);
  EXPECT_DOUBLE_EQ(ctx.now, 8.0);
  EXPECT_DOUBLE_EQ(ctx.obs_age_s, 3.0);
  EXPECT_DOUBLE_EQ(ctx.measured_rate, 4.5);
  EXPECT_EQ(ctx.serving, 6u);
  EXPECT_TRUE(ctx.safe_mode);
  // Actuator protocol never ran: no acked state to plan against.
  EXPECT_FALSE(ctx.acked_target.has_value());
  EXPECT_FALSE(ctx.acked_speed.has_value());
}

TEST(ControlPlane, TickIssuesTargetBeforeSpeed) {
  ScriptedController controller;
  controller.next.active_target = 3;
  controller.next.speed = 0.75;
  ControlPlane cp = make_plane(controller);
  cp.accept_telemetry(frame_at(0.0));
  const ControlPlane::Decision d = cp.on_tick(10.0, /*long_tick=*/true, false);
  ASSERT_EQ(d.commands.size(), 2u);
  EXPECT_EQ(d.commands[0].frame.kind, CommandKind::kTarget);
  EXPECT_DOUBLE_EQ(d.commands[0].frame.value, 3.0);
  EXPECT_EQ(d.commands[1].frame.kind, CommandKind::kSpeed);
  EXPECT_DOUBLE_EQ(d.commands[1].frame.value, 0.75);
  EXPECT_FALSE(d.commands[0].retransmit);
  EXPECT_FALSE(d.commands[1].retransmit);
  // Per-kind generations both start at 1; era 0 until the driver bumps it.
  EXPECT_EQ(d.commands[0].frame.gen, 1u);
  EXPECT_EQ(d.commands[1].frame.gen, 1u);
  EXPECT_EQ(d.commands[0].frame.era, 0u);
  EXPECT_EQ(cp.commands_issued(), 2u);
  EXPECT_EQ(controller.seen.size(), 1u);
}

TEST(ControlPlane, UnsetActionFieldsIssueNothing) {
  ScriptedController controller;  // next is all-unset
  ControlPlane cp = make_plane(controller);
  const ControlPlane::Decision d = cp.on_tick(10.0, /*long_tick=*/false, false);
  EXPECT_TRUE(d.commands.empty());
  EXPECT_EQ(cp.commands_issued(), 0u);
  EXPECT_EQ(cp.ticks(), 1u);
  EXPECT_EQ(cp.long_ticks(), 0u);
}

TEST(ControlPlane, EraBumpStampsSubsequentCommands) {
  ScriptedController controller;
  controller.next.active_target = 2;
  ControlPlane cp = make_plane(controller);
  (void)cp.on_tick(10.0, false, false);
  cp.bump_era();
  cp.bump_era();
  EXPECT_EQ(cp.era(), 2u);
  const ControlPlane::Decision d = cp.on_tick(20.0, false, false);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0].frame.era, 2u);
  // Generations keep counting across eras (monotone per kind).
  EXPECT_EQ(d.commands[0].frame.gen, 2u);
}

TEST(ControlPlane, UnackedCommandRetransmitsAndAckStopsIt) {
  ScriptedController controller;
  controller.next.active_target = 5;
  ControlPlaneOptions options;
  options.actuator.enabled = true;
  options.actuator.ack_timeout_s = 5.0;
  ControlPlane cp(controller, options, Rng(7, 14));
  const ControlPlane::Decision issued = cp.on_tick(0.0, false, false);
  ASSERT_EQ(issued.commands.size(), 1u);
  const std::uint64_t gen = issued.commands[0].frame.gen;

  // Past the ack timeout with no ack and no fresh command: the actuator
  // re-asserts the unacked target as retry traffic.
  controller.next = ControlAction{};
  const ControlPlane::Decision retry = cp.on_tick(10.0, false, false);
  ASSERT_EQ(retry.commands.size(), 1u);
  EXPECT_TRUE(retry.commands[0].retransmit);
  EXPECT_EQ(retry.commands[0].frame.gen, gen);

  // Acked: nothing left in flight, and the acked value feeds the context.
  cp.on_ack(11.0, CommandKind::kTarget, gen);
  const ControlPlane::Decision quiet = cp.on_tick(30.0, false, false);
  EXPECT_TRUE(quiet.commands.empty());
  const ControlContext ctx = cp.make_context(31.0, false);
  ASSERT_TRUE(ctx.acked_target.has_value());
  EXPECT_EQ(*ctx.acked_target, 5u);
}

TEST(ControlPlane, InfeasibleTicksAreCounted) {
  ScriptedController controller;
  controller.next.infeasible = true;
  ControlPlane cp = make_plane(controller);
  (void)cp.on_tick(10.0, true, false);
  (void)cp.on_tick(20.0, false, false);
  EXPECT_EQ(cp.infeasible_ticks(), 2u);
  EXPECT_EQ(cp.long_ticks(), 1u);
}

TEST(ControlPlane, CountersSnapshotCarriesTheCpNamespace) {
  ScriptedController controller;
  controller.next.speed = 0.5;
  ControlPlane cp = make_plane(controller);
  cp.accept_telemetry(frame_at(0.0, 8.0));
  (void)cp.on_tick(10.0, false, false);
  const CountersSnapshot snap = cp.counters_snapshot();
  EXPECT_EQ(snap.counter_or("cp.ticks", 0), 1u);
  EXPECT_EQ(snap.counter_or("cp.commands.issued", 0), 1u);
  EXPECT_EQ(snap.counter_or("cp.telemetry.accepted", 0), 1u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("cp.rate.latest", -1.0), 8.0);
  EXPECT_DOUBLE_EQ(snap.gauge_or("cp.era", -1.0), 0.0);
  // The Prometheus exposition renders the same snapshot.
  EXPECT_NE(to_prometheus_text(snap, cp.lifecycle().prometheus_histograms()).find("cp"),
            std::string::npos);
}

TEST(ControlPlane, SmoothedRateFollowsDeliveredSamples) {
  ScriptedController controller;
  ControlPlane cp(controller, ControlPlaneOptions{}, Rng(7, 14));
  cp.accept_telemetry(frame_at(1.0, 3.0));  // the first sample primes the EWMA
  cp.accept_telemetry(frame_at(2.0, 9.0));
  EXPECT_DOUBLE_EQ(cp.smoothed_rate(), 0.2 * 9.0 + 0.8 * 3.0);  // alpha = 0.2
}

TEST(ControlPlane, StalenessInstrumentIsObservational) {
  ScriptedController controller;
  controller.next.speed = 1.0;
  ControlPlaneOptions options;
  options.staleness.horizon_s = 5.0;
  ControlPlane cp(controller, options, Rng(7, 14));
  cp.accept_telemetry(frame_at(0.0));
  const ControlPlane::Decision d = cp.on_tick(100.0, false, false);
  EXPECT_TRUE(cp.telemetry_stale());
  EXPECT_GE(cp.counters_snapshot().counter_or("cp.telemetry.stale_ticks", 0), 1u);
  // The guard never rewrites what the policy sees: the context carries the
  // raw delivered sample and its true age.
  EXPECT_DOUBLE_EQ(d.ctx.obs_age_s, 100.0);
  EXPECT_DOUBLE_EQ(d.ctx.measured_rate, 5.0);
}

TEST(ControlPlane, OptionsValidateRejectsBadSettings) {
  // The facade's members check their own settings: the staleness guard its
  // horizon (NaN included), the actuator its options.
  ScriptedController controller;
  ControlPlaneOptions bad_staleness;
  bad_staleness.staleness.horizon_s = -1.0;
  EXPECT_THROW(ControlPlane(controller, bad_staleness, Rng(7, 14)),
               std::invalid_argument);
  bad_staleness.staleness.horizon_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ControlPlane(controller, bad_staleness, Rng(7, 14)),
               std::invalid_argument);
  ControlPlaneOptions bad_actuator;
  bad_actuator.actuator.ack_timeout_s = 0.0;
  EXPECT_THROW(ControlPlane(controller, bad_actuator, Rng(7, 14)),
               std::invalid_argument);
  EXPECT_THROW(ControlPlane(std::unique_ptr<Controller>(), ControlPlaneOptions{},
                            Rng(7, 14)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gc
