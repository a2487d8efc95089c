// The controller-side half of the management plane as one reusable facade
// (DESIGN.md §12).
//
// Everything the "controller box" does between receiving a telemetry frame
// and emitting command frames lives here: the newest-wins observation
// store, the policy controller itself, the facade-level rate estimator and
// staleness accounting, and the ack/retry CommandActuator.  The facade is
// transport-agnostic — it never schedules events, opens sockets or touches
// a Cluster.  Three drivers feed it today:
//
//   * sim/control_loop.h — the in-process simulator's one control loop,
//     shared by the sequential and the sharded engine; ships telemetry and
//     transmits the returned command frames over sim/control_channel.
//     Bit-identical to the pre-extraction loops (every pinned determinism
//     golden, sequential and sharded, holds).
//   * cp/replay.h — tools/gcreplay's engine; streams a recorded audit log
//     back through a fresh facade and asserts the command stream matches.
//   * cp/wire.h — a length-prefixed frame protocol over a byte stream
//     (UNIX socket), for out-of-process fleets.
//
// Determinism contract: one tick = exactly one controller call plus one
// actuator issue per set action field plus one retry poll, in that order.
// The estimator/staleness instruments are strictly observational — they
// feed counters and gauges, never the controller — so attaching the facade
// cannot perturb a policy's decisions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/actuator.h"
#include "control/estimator.h"
#include "cp/controller.h"
#include "cp/frames.h"
#include "cp/lifecycle.h"
#include "obs/counters.h"
#include "stats/rng.h"

namespace gc {

struct ControlPlaneOptions {
  // Ack/retry protocol knobs (control/actuator.h).  Commands are stamped
  // even when disabled (fire-and-forget), so every driver sees the same
  // generation sequence.
  ActuatorOptions actuator;
  // Facade-level staleness accounting over delivered telemetry ages.
  // Observational only: the controllers run their *own* guards; this one
  // just surfaces `cp.telemetry.stale_ticks` for operators.  horizon 0
  // disables it.
  StalenessOptions staleness;

  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

class ControlPlane {
 public:
  // One stamped command bound for the fleet.  `retransmit` marks retry
  // traffic (the actuator re-asserting an unacked command) as opposed to a
  // command issued by this tick's decision.
  struct Outbound {
    CommandFrame frame;
    bool retransmit = false;
  };

  // The result of one control tick: the context the policy saw, the action
  // it returned, and the command frames to transmit — in transmit order
  // (fresh target, fresh speed, then due retransmissions).
  struct Decision {
    ControlContext ctx;
    ControlAction action;
    std::vector<Outbound> commands;
  };

  // Borrows the controller (must outlive the facade) — callers build it
  // via control/policies.h make_policy or hand-construct one.
  ControlPlane(Controller& controller, const ControlPlaneOptions& options,
               Rng rng);
  // Owning overload for drivers with no other home for the controller
  // (gcreplay, the wire server).
  ControlPlane(std::unique_ptr<Controller> controller,
               const ControlPlaneOptions& options, Rng rng);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  [[nodiscard]] double short_period_s() const { return controller_->short_period_s(); }
  [[nodiscard]] double long_period_s() const { return controller_->long_period_s(); }
  [[nodiscard]] Controller& controller() noexcept { return *controller_; }

  // Seeds the observation store with ground truth known at start-up (the
  // t = 0 fleet state) without counting it as a delivered sample.
  void seed_observation(const TelemetryFrame& frame) noexcept;

  // Delivers one telemetry frame.  Newest-wins: a frame older than the
  // current observation is discarded (counted), so the facade's fleet view
  // only ever moves forward in time.
  void accept_telemetry(const TelemetryFrame& frame) noexcept;

  // The context a tick at `now` would plan on: the newest delivered frame,
  // its age, the safe-mode flag the driver reports, and the last
  // fleet-acknowledged target/speed.
  [[nodiscard]] ControlContext make_context(double now, bool safe_mode) const;

  // Runs one control tick: builds the context, consults the policy, stamps
  // the resulting commands through the actuator and collects due
  // retransmissions.  The driver transmits `Decision::commands` in order.
  [[nodiscard]] Decision on_tick(double now, bool long_tick, bool safe_mode);

  // Fleet acknowledgement for (kind, gen); forwarded to the actuator.
  void on_ack(double now, CommandKind kind, std::uint64_t gen);

  // Driver-reported fleet-side application of (kind, gen) — feeds the
  // lifecycle tracker's decision→apply / end-to-end latency histograms.
  // Only callers that can observe the fleet report this (the simulator's
  // control loop does; the replay and wire front ends cannot see the far
  // side).
  void on_command_applied(double now, CommandKind kind, std::uint64_t gen);

  // Causal lifecycle tracker (cp/lifecycle.h): per-command state machine,
  // per-stage latency histograms and drop attribution.  Strictly
  // observational — excluded from snapshot()/restore(), so recovery and
  // the goldens are untouched by anything recorded here.
  [[nodiscard]] LifecycleTracker& lifecycle() noexcept { return lifecycle_; }
  [[nodiscard]] const LifecycleTracker& lifecycle() const noexcept {
    return lifecycle_;
  }

  // Controller incarnation stamped into every command.  The driver bumps
  // it when a new controller instance takes over (outage recovery), so the
  // fleet can reject commands planned by a dead incarnation.
  [[nodiscard]] std::uint32_t era() const noexcept { return era_; }
  void bump_era() noexcept { ++era_; }

  [[nodiscard]] const TelemetryFrame& latest_observation() const noexcept {
    return latest_;
  }
  [[nodiscard]] const CommandActuator& actuator() const noexcept { return actuator_; }
  [[nodiscard]] CommandActuator& actuator() noexcept { return actuator_; }

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::uint64_t long_ticks() const noexcept { return long_ticks_; }
  [[nodiscard]] std::uint64_t infeasible_ticks() const noexcept {
    return infeasible_ticks_;
  }
  [[nodiscard]] std::uint64_t telemetry_accepted() const noexcept {
    return telemetry_accepted_;
  }
  [[nodiscard]] std::uint64_t telemetry_stale_discarded() const noexcept {
    return telemetry_stale_discarded_;
  }
  [[nodiscard]] std::uint64_t commands_issued() const noexcept {
    return commands_issued_;
  }
  // EWMA of the delivered telemetry rate (observational gauge).
  [[nodiscard]] double smoothed_rate() const noexcept { return rate_ewma_.value(); }
  // Facade staleness view of the last tick (inert at horizon 0).
  [[nodiscard]] bool telemetry_stale() const noexcept { return staleness_.stale(); }

  // -- Crash recovery (DESIGN.md §13) ----------------------------------------
  //
  // snapshot() serializes the complete mutable state of the facade — the
  // policy controller's internals (via Controller::save_state), the
  // observation store, the estimator/staleness instruments, the actuator
  // lanes and jitter RNG, the era and every cp.* counter — wrapped in the
  // versioned, CRC-guarded envelope of cp/snapshot.h.  restore() loads
  // those bytes into a freshly constructed facade running the *same*
  // controller type under the *same* options; the controller name is
  // cross-checked, and any malformation throws SnapshotError.  A facade
  // whose restore() threw is in an unspecified partial state and must be
  // discarded — recovery code rebuilds and retries, it never continues.
  //
  // Contract: restore(snapshot()) is a bit-identical state transplant.
  // Replaying the same inputs after a snapshot/restore round trip yields
  // exactly the command stream (values, generations, eras, retry instants,
  // jitter draws) the uninterrupted facade would have emitted — the
  // recovery drift oracle in tools/gcreplay holds this line.
  [[nodiscard]] std::string snapshot() const;
  void restore(const std::string& bytes);

  // The facade's own metric plane (`cp.*` namespace): tick/telemetry/
  // command counters plus actuator protocol totals, as a snapshot any
  // driver can merge into its run artifacts or serve to a scraper.  This
  // is where the Prometheus exposition of the control plane now lives —
  // obs/prometheus renders the same snapshot for every driver instead of
  // each one hand-picking registry entries.
  // Render it with lifecycle().prometheus_histograms() through
  // to_prometheus_text() for a scraper.
  [[nodiscard]] CountersSnapshot counters_snapshot() const;

 private:
  std::unique_ptr<Controller> owned_;  // null when borrowing
  Controller* controller_;
  ControlPlaneOptions options_;
  CommandActuator actuator_;
  LifecycleTracker lifecycle_;
  TelemetryFrame latest_;
  EwmaEstimator rate_ewma_;
  StalenessGuard staleness_;
  std::uint32_t era_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t long_ticks_ = 0;
  std::uint64_t infeasible_ticks_ = 0;
  std::uint64_t telemetry_accepted_ = 0;
  std::uint64_t telemetry_stale_discarded_ = 0;
  std::uint64_t commands_issued_ = 0;
  double last_obs_age_s_ = 0.0;
  std::vector<CommandFrame> retry_buf_;  // reused across ticks
};

}  // namespace gc
