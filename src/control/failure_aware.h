// Failure-aware extensions to the DCP controller.
//
// Three pieces compose into FailureAwareDcpController:
//
//   * FailureDetector — a heartbeat-style detector over the fleet's
//     available-server count.  A crashed server keeps being counted until
//     kHeartbeatMisses consecutive heartbeats go unanswered
//     (kDetectionDelayS = interval * misses); a repaired server is seen
//     immediately (it announces itself).  Modeled as the max of the true
//     availability over the trailing detection window — failures surface
//     late, repairs instantly.
//   * BootRetryGate — boot commands can be swallowed by boot hangs (the
//     commanded server never reaches ON).  The gate watches the
//     committed-vs-target deficit: the first shortfall asserts the target
//     immediately, then re-asserts it only at exponentially backed-off
//     deadlines (one long period, then 2, 4, ...) up to kBootRetryBudget
//     attempts per episode, returning the committed count in between so
//     the reconciler is not spammed with boots that will hang again.
//     Reaching the target (or a lowered one) resets the episode, and so
//     does any *rise* in the committed count between proposals: boots that
//     land mean the deficit is an ordinary ramp, not hung commands.
//   * Spare capacity — the planner solves within the *detected* available
//     fleet (Provisioner::solve_capped) and then adds
//     ceil(kSpareCapacityFraction * m) standby servers, so attrition
//     during the long period lands on warm spares instead of the SLA.
//     Because the spare itself over-provisions, the long-period safety
//     margin is relieved by the spare's share
//     (margin / (1 + kSpareCapacityFraction), clamped at 1) rather than
//     stacked on top of it — the spare absorbs prediction error exactly
//     like the margin would whenever no crash claims it.
//     The spares are pure headroom: the short tick fits the frequency for
//     the *planned base* server count, so spreading the load over the
//     wider fleet can only speed jobs up.  (Fitting to the full fleet
//     would dilute the safety margin's latency headroom — T rises toward
//     t_ref as m grows — and make the spared fleet *slower* per job than
//     the unspared plan.)
//
// Declared independently of control/policies.h (which includes this file
// and exposes the policy as PolicyKind::kDcpFailureAware).
#pragma once

#include <cmath>
#include <deque>
#include <memory>

#include "core/dcp.h"
#include "core/provisioner.h"
#include "control/estimator.h"
#include "control/predictor.h"
#include "cp/controller.h"

namespace gc {

// The heartbeat detector: a crashed server is declared dead after
// kHeartbeatMisses consecutive heartbeats, kHeartbeatIntervalS apart, go
// unanswered.
inline constexpr double kHeartbeatIntervalS = 5.0;
inline constexpr unsigned kHeartbeatMisses = 2;
inline constexpr double kDetectionDelayS = kHeartbeatIntervalS * kHeartbeatMisses;
// Extra standby servers on top of the planned m, as a fraction of m
// (rounded up).  It keeps one warm spare for fleets up to 16 planned
// servers — enough to absorb one crash per long period without breathing
// the SLA, at a single-digit energy premium.
inline constexpr double kSpareCapacityFraction = 0.0625;
// An unmet server-count target is re-asserted at most this many times per
// shortfall episode before the controller settles for the committed fleet.
// The first retry waits one long period (the next provisioning decision).
inline constexpr unsigned kBootRetryBudget = 4;

// Delayed-failure / instant-repair availability view.
class FailureDetector {
 public:
  // `initial_available` is what the detector reports before any
  // observation ages past the detection delay.
  FailureDetector(double detection_delay_s, unsigned initial_available);

  // Feeds the true available count at `now`; returns the detected count
  // (the max over the trailing detection window).
  unsigned observe(double now, unsigned available);

  [[nodiscard]] unsigned detected() const noexcept { return detected_; }

  // Checkpoint/restore of the detection window (cp/snapshot.h): the delay
  // is configuration, the trailing sample window is state.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct Sample {
    double time;
    unsigned available;
  };
  double delay_;
  unsigned detected_;
  std::deque<Sample> window_;
};

// Exponential-backoff gate on unmet server-count targets.
class BootRetryGate {
 public:
  BootRetryGate(unsigned budget, double backoff_s);

  // `target` is what the planner wants, `committed` what the cluster has
  // (serving + booting).  Returns the target to actually assert.
  [[nodiscard]] unsigned propose(double now, unsigned committed, unsigned target);

  [[nodiscard]] unsigned attempts() const noexcept { return attempts_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return in_deficit_ && attempts_ >= budget_;
  }

  // Checkpoint/restore of the episode state (cp/snapshot.h).
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  unsigned budget_;
  double backoff_s_;
  unsigned attempts_ = 0;
  double next_retry_ = 0.0;
  bool in_deficit_ = false;
  unsigned last_committed_ = 0;
};

// Combined/DCP with failure detection, capped+spared provisioning and boot
// retries.  Construction mirrors CombinedDcpController; policies.cpp wires
// it to PolicyKind::kDcpFailureAware.
class FailureAwareDcpController final : public Controller {
 public:
  FailureAwareDcpController(const Provisioner* provisioner, const DcpParams& dcp,
                            PredictorKind predictor,
                            const StalenessOptions& staleness = {});

  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "dcp-failure-aware"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  const Provisioner* provisioner_;
  DcpPlanner planner_;
  std::unique_ptr<LoadPredictor> predictor_;
  HysteresisGate hysteresis_;
  FailureDetector detector_;
  BootRetryGate retry_;
  StalenessGuard guard_;
  // Base server count of the last long-period plan (before spares); the
  // short tick fits speed to this so spares stay pure headroom.  0 until
  // the first long tick.
  unsigned planned_base_ = 0;
};

}  // namespace gc
