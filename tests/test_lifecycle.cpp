// Causal lifecycle tracking tests (cp/lifecycle.h, DESIGN.md §14): the
// deterministic id derivation, the per-command state machine (issued →
// retransmitted×N → acked/applied → completed; superseded/reconciled
// terminal), the drop-attribution sum invariant, the exported counter and
// gauge names the CI gates rely on, Prometheus histogram exposition and
// the jsonl round trip into the `gcinspect --lifecycle` parser.
#include "cp/lifecycle.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cp/control_plane.h"
#include "obs/inspect.h"
#include "obs/prometheus.h"

namespace gc {
namespace {

CommandFrame frame(CommandKind kind, std::uint64_t gen, double value = 1.0,
                   std::uint32_t era = 0) {
  return CommandFrame{kind, value, gen, era};
}

double counter_of(const CountersSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return static_cast<double>(value);
  }
  ADD_FAILURE() << "missing counter " << name;
  return -1.0;
}

double gauge_of(const CountersSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "missing gauge " << name;
  return -1.0;
}

// -- Identity -----------------------------------------------------------------

TEST(LifecycleId, DerivesFromLaneGenerationWithoutCollisions) {
  // (gen << 1) | kind: both lanes at the same generation stay distinct,
  // and the id is a pure function of wire-visible fields — no new state.
  EXPECT_EQ(command_lifecycle_id(CommandKind::kTarget, 5), 10u);
  EXPECT_EQ(command_lifecycle_id(CommandKind::kSpeed, 5), 11u);
  EXPECT_NE(command_lifecycle_id(CommandKind::kTarget, 7),
            command_lifecycle_id(CommandKind::kSpeed, 7));
  CommandLifecycle rec;
  rec.kind = CommandKind::kSpeed;
  rec.gen = 9;
  EXPECT_EQ(rec.id(), command_lifecycle_id(CommandKind::kSpeed, 9));
}

TEST(LifecycleId, FrameSequencesAreMonotonePerClass) {
  LifecycleTracker tracker;
  EXPECT_EQ(tracker.next_frame_id(FrameClass::kTelemetry), 1u);
  EXPECT_EQ(tracker.next_frame_id(FrameClass::kTelemetry), 2u);
  // Classes count independently.
  EXPECT_EQ(tracker.next_frame_id(FrameClass::kAck), 1u);
  EXPECT_EQ(tracker.next_frame_id(FrameClass::kTelemetry), 3u);
}

// -- Drop attribution ---------------------------------------------------------

TEST(DropAttribution, TotalEqualsTheSumOfEveryCell) {
  DropAttribution attr;
  attr.charge(FrameClass::kTelemetry, DropCause::kChannel, 3);
  attr.charge(FrameClass::kCommand, DropCause::kChannel, 2);
  attr.charge(FrameClass::kCommand, DropCause::kChaosCorrupt);
  attr.charge(FrameClass::kAck, DropCause::kWireCrc);
  EXPECT_EQ(attr.count(FrameClass::kTelemetry, DropCause::kChannel), 3u);
  EXPECT_EQ(attr.count(FrameClass::kCommand, DropCause::kChannel), 2u);
  EXPECT_EQ(attr.total(), 7u);

  CountersSnapshot snap;
  attr.counters_into(snap);
  EXPECT_EQ(counter_of(snap, "cp.drop.telemetry.channel"), 3.0);
  EXPECT_EQ(counter_of(snap, "cp.drop.command.channel"), 2.0);
  EXPECT_EQ(counter_of(snap, "cp.drop.command.chaos_corrupt"), 1.0);
  EXPECT_EQ(counter_of(snap, "cp.drop.ack.wire_crc"), 1.0);
  // The invariant the whole feature gates on: per-cause counters sum
  // exactly to the total — every consumed frame charged exactly once.
  double sum = 0.0;
  for (const auto& [key, value] : snap.counters) {
    if (key.rfind("cp.drop.", 0) == 0 && key != "cp.drop.total") {
      sum += static_cast<double>(value);
    }
  }
  EXPECT_EQ(sum, counter_of(snap, "cp.drop.total"));
}

TEST(DropAttribution, ZeroCellsStayOutOfTheSnapshot) {
  DropAttribution attr;
  CountersSnapshot snap;
  attr.counters_into(snap);
  ASSERT_EQ(snap.counters.size(), 1u);  // just the always-present total
  EXPECT_EQ(counter_of(snap, "cp.drop.total"), 0.0);
}

// -- The state machine --------------------------------------------------------

TEST(LifecycleTracker, HappyPathCompletesWithPerStageLatencies) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.set_expect_applies(true);
  tracker.on_issued(10.0, frame(CommandKind::kTarget, 1, 16.0), 0.5);
  tracker.on_applied(13.0, CommandKind::kTarget, 1);
  tracker.on_acked(14.0, CommandKind::kTarget, 1);
  tracker.finalize_all(20.0);

  EXPECT_EQ(tracker.issued(), 1u);
  EXPECT_EQ(tracker.acked(), 1u);
  EXPECT_EQ(tracker.applied(), 1u);
  EXPECT_EQ(tracker.completed(), 1u);
  ASSERT_EQ(tracker.ack_latency().count(), 1u);
  // LogHistogram quantiles are bucket midpoints: exact to ~3%.
  EXPECT_NEAR(tracker.ack_latency().quantile(0.5), 4.0, 4.0 * 0.05);
  EXPECT_NEAR(tracker.apply_latency().quantile(0.5), 3.0, 3.0 * 0.05);
  EXPECT_NEAR(tracker.e2e_latency().quantile(0.5), 4.0, 4.0 * 0.05);
  EXPECT_NEAR(tracker.obs_age().quantile(0.5), 0.5, 0.5 * 0.05);

  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, CommandLifecycle::State::kCompleted);
  EXPECT_EQ(records[0].gen, 1u);
  EXPECT_DOUBLE_EQ(records[0].issued_s, 10.0);
  EXPECT_DOUBLE_EQ(records[0].acked_s, 14.0);
  EXPECT_DOUBLE_EQ(records[0].applied_s, 13.0);
}

TEST(LifecycleTracker, RetransmitsTallyOnTheRecord) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kSpeed, 1), 0.0);
  tracker.on_retransmit(5.0, frame(CommandKind::kSpeed, 1));
  tracker.on_retransmit(10.0, frame(CommandKind::kSpeed, 1));
  tracker.on_acked(12.0, CommandKind::kSpeed, 1);
  tracker.finalize_all(20.0);
  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].retransmits, 2u);
  EXPECT_DOUBLE_EQ(records[0].last_sent_s, 10.0);
  EXPECT_EQ(tracker.retransmits(), 2u);
}

TEST(LifecycleTracker, NewerCommandSupersedesTheUnackedPredecessor) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.0);
  tracker.on_issued(5.0, frame(CommandKind::kTarget, 2), 0.0);
  EXPECT_EQ(tracker.superseded(), 1u);
  // The late ack still lands on the superseded record's timeline but
  // counts as a late event, not a completion.
  tracker.on_acked(6.0, CommandKind::kTarget, 1);
  EXPECT_EQ(tracker.late_events(), 1u);
  tracker.on_acked(7.0, CommandKind::kTarget, 2);
  tracker.finalize_all(10.0);
  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].state, CommandLifecycle::State::kSuperseded);
  EXPECT_DOUBLE_EQ(records[0].acked_s, 6.0);
  EXPECT_EQ(records[1].state, CommandLifecycle::State::kCompleted);
  EXPECT_EQ(tracker.completed(), 1u);
  EXPECT_EQ(tracker.ack_latency().count(), 1u);
}

TEST(LifecycleTracker, ReconciledLaneIsTerminalNotCompleted) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.0);
  tracker.on_lane_reconciled(30.0, CommandKind::kTarget);
  EXPECT_EQ(tracker.reconciled(), 1u);
  // Idempotent: a second reconcile of the same (already terminal) lane
  // changes nothing.
  tracker.on_lane_reconciled(31.0, CommandKind::kTarget);
  EXPECT_EQ(tracker.reconciled(), 1u);
  tracker.finalize_all(40.0);
  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, CommandLifecycle::State::kReconciled);
  EXPECT_EQ(tracker.completed(), 0u);
}

TEST(LifecycleTracker, UnconfirmedCommandStaysInFlightThroughFinalize) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kSpeed, 1), 0.0);
  tracker.finalize_all(100.0);
  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, CommandLifecycle::State::kInFlight);
  EXPECT_DOUBLE_EQ(records[0].acked_s, -1.0);
}

TEST(LifecycleTracker, CommandFrameDropsChargeAndTallyPerRecord) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.0);
  tracker.on_command_frame_dropped(0.0, frame(CommandKind::kTarget, 1),
                                   DropCause::kChannel);
  tracker.on_retransmit(5.0, frame(CommandKind::kTarget, 1));
  tracker.on_command_frame_dropped(5.0, frame(CommandKind::kTarget, 1),
                                   DropCause::kChaosDrop);
  tracker.finalize_all(10.0);
  EXPECT_EQ(tracker.attribution().total(), 2u);
  EXPECT_EQ(tracker.attribution().count(FrameClass::kCommand,
                                        DropCause::kChannel), 1u);
  EXPECT_EQ(tracker.attribution().count(FrameClass::kCommand,
                                        DropCause::kChaosDrop), 1u);
  const auto records = tracker.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].frame_drops, 2u);
}

TEST(LifecycleTracker, DuplicateAcksAndAppliesAreLateEvents) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.set_expect_applies(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.0);
  tracker.on_applied(1.0, CommandKind::kTarget, 1);
  tracker.on_applied(1.5, CommandKind::kTarget, 1);  // dup while open
  tracker.on_acked(2.0, CommandKind::kTarget, 1);    // completes + closes
  tracker.on_acked(3.0, CommandKind::kTarget, 1);    // dup after close
  EXPECT_EQ(tracker.completed(), 1u);
  EXPECT_EQ(tracker.late_events(), 2u);
}

// -- Exported names -----------------------------------------------------------

TEST(LifecycleTracker, CountersCarryTheGatedNames) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.0);
  tracker.on_retransmit(5.0, frame(CommandKind::kTarget, 1));
  tracker.on_acked(6.0, CommandKind::kTarget, 1);
  CountersSnapshot snap;
  tracker.counters_into(snap);
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.issued"), 1.0);
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.retransmits"), 1.0);
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.acked"), 1.0);
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.completed"), 1.0);
  // The literal-colon gauge names ci/check.sh gates through gcinspect.
  EXPECT_GT(gauge_of(snap, "cp.lifecycle.ack_latency:p99"), 0.0);
  EXPECT_DOUBLE_EQ(gauge_of(snap, "cp.lifecycle.retransmit_rate"), 1.0);
  EXPECT_DOUBLE_EQ(gauge_of(snap, "cp.lifecycle.open"), 0.0);
}

TEST(LifecycleTracker, PrometheusHistogramsRenderAsBuckets) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(0.0, frame(CommandKind::kTarget, 1), 0.25);
  tracker.on_acked(2.0, CommandKind::kTarget, 1);
  CountersSnapshot snap;
  tracker.counters_into(snap);
  const std::string text =
      to_prometheus_text(snap, tracker.prometheus_histograms());
  EXPECT_NE(text.find("gc_cp_lifecycle_ack_latency_seconds_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("gc_cp_lifecycle_ack_latency_seconds_sum"),
            std::string::npos);
  EXPECT_NE(text.find("gc_cp_lifecycle_ack_latency_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("gc_cp_lifecycle_obs_age_seconds_count 1"),
            std::string::npos);
}

// -- jsonl round trip ---------------------------------------------------------

TEST(LifecycleJsonl, RoundTripsIntoTheInspectParser) {
  LifecycleTracker tracker;
  tracker.set_expect_acks(true);
  tracker.on_issued(10.0, frame(CommandKind::kTarget, 1, 16.0), 0.5);
  tracker.on_retransmit(15.0, frame(CommandKind::kTarget, 1));
  tracker.on_acked(17.0, CommandKind::kTarget, 1);
  tracker.on_issued(20.0, frame(CommandKind::kSpeed, 1, 0.75), 0.0);
  tracker.finalize_all(30.0);

  std::ostringstream os;
  write_lifecycle_jsonl(os, tracker.records());
  const std::vector<LifecycleRow> rows = parse_lifecycle_jsonl(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].kind, "target");
  EXPECT_EQ(rows[0].gen, 1u);
  EXPECT_EQ(rows[0].id, command_lifecycle_id(CommandKind::kTarget, 1));
  EXPECT_DOUBLE_EQ(rows[0].value, 16.0);
  EXPECT_DOUBLE_EQ(rows[0].issued_s, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].obs_age_s, 0.5);
  EXPECT_EQ(rows[0].retransmits, 1u);
  EXPECT_DOUBLE_EQ(rows[0].last_sent_s, 15.0);
  EXPECT_DOUBLE_EQ(rows[0].acked_s, 17.0);
  EXPECT_EQ(rows[0].state, "completed");
  EXPECT_EQ(rows[1].kind, "speed");
  EXPECT_DOUBLE_EQ(rows[1].acked_s, -1.0);
  EXPECT_EQ(rows[1].state, "in-flight");
}

// -- ControlPlane integration -------------------------------------------------

class ScriptedController final : public Controller {
 public:
  ControlAction next;
  [[nodiscard]] double short_period_s() const override { return 10.0; }
  [[nodiscard]] double long_period_s() const override { return 60.0; }
  [[nodiscard]] ControlAction on_short_tick(const ControlContext&) override {
    return next;
  }
  [[nodiscard]] ControlAction on_long_tick(const ControlContext&) override {
    return next;
  }
  [[nodiscard]] const char* name() const override { return "scripted"; }
};

TEST(LifecycleControlPlane, TracksTheFacadeEndToEnd) {
  ScriptedController controller;
  controller.next.active_target = 3;
  controller.next.speed = 0.5;
  ControlPlaneOptions options;
  options.actuator.enabled = true;
  options.actuator.ack_timeout_s = 5.0;
  ControlPlane cp(controller, options, Rng(7, 14));

  const auto decision = cp.on_tick(0.0, /*long_tick=*/true, /*safe_mode=*/false);
  ASSERT_EQ(decision.commands.size(), 2u);
  EXPECT_EQ(cp.lifecycle().issued(), 2u);
  cp.on_command_applied(1.0, CommandKind::kTarget, 1);
  cp.on_ack(2.0, CommandKind::kTarget, 1);
  EXPECT_EQ(cp.lifecycle().acked(), 1u);

  // The unacked speed lane retransmits past the 5 s timeout.  The second
  // tick's action is empty so the decision carries only retry traffic.
  controller.next = ControlAction{};
  const auto retry = cp.on_tick(10.0, false, false);
  bool saw_retransmit = false;
  for (const auto& out : retry.commands) {
    saw_retransmit |= out.retransmit;
  }
  EXPECT_TRUE(saw_retransmit);
  EXPECT_EQ(cp.lifecycle().retransmits(), 1u);

  const CountersSnapshot snap = cp.counters_snapshot();
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.issued"), 2.0);
  EXPECT_EQ(counter_of(snap, "cp.lifecycle.retransmits"), 1.0);
  EXPECT_NE(to_prometheus_text(snap, cp.lifecycle().prometheus_histograms())
                .find("gc_cp_lifecycle_ack_latency_seconds_bucket{le="),
            std::string::npos);
}

}  // namespace
}  // namespace gc
