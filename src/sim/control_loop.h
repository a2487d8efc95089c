// The fleet-control loop both simulation engines share (DESIGN.md §12.6).
//
// The paper's DCP controller is one two-timescale loop: the fleet samples
// telemetry, the controller decides, the fleet actuates.  ControlLoop is
// that loop for the in-process engines (sim/simulation.cpp and
// sim/sharded.cpp).  It owns
//
//   * the cp::ControlPlane facade, the lossy ControlChannel and the
//     in-flight payload stores of delayed telemetry / commands / acks;
//   * the fleet side of the command protocol: generation dedup, the era
//     gate, the watchdog's safe-mode fallback and the scripted controller
//     outages with their preserve / warm / cold recovery modes (§13.4);
//   * the per-tick observability: admission update, audit record, trace
//     spans, time-series sample, and the timeline point;
//   * the control/channel/actuator/lifecycle/cp.* part of the SimResult
//     and counters fold.
//
// An engine keeps only its own event loop.  It lends the loop a narrow
// FleetView and the EventQueue that carries delayed deliveries and outage
// edges, then forwards each control tick, each control-plane event, each
// timeline record instant and the warmup boundary.  The loop runs only
// at those instants: it never sees arrivals, departures or servers.
//
// Determinism: the channel and the actuator draw only when an outcome can
// differ and outages are scripted, so leaving them at defaults (or
// enabling them with zero loss/latency and no outages) is bit-identical to
// the synchronous path, and nothing observational feeds back into a
// decision.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cp/control_plane.h"
#include "obs/counters.h"
#include "sim/admission.h"
#include "sim/control_channel.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace gc {

// Seed derivation shared by both engines (DESIGN.md §11.4): salts XORed
// into ClusterOptions::dispatch_seed, and the RNG stream numbers drawn
// from the derived seeds.
inline constexpr std::uint64_t kControlSeedSalt = 0x5ca1ab1ec0ffeeULL;
inline constexpr std::uint64_t kFaultSeedSalt = 0xfa7a17f00dULL;
inline constexpr std::uint64_t kAdmissionRngStream = 7;  // from dispatch_seed
inline constexpr std::uint64_t kActuatorRngStream = 14;  // from the control seed

// Fault-injection seed: FaultOptions::seed, or 0 derives it from the
// dispatch seed so replications stay on independent fault histories.
[[nodiscard]] inline std::uint64_t fault_seed(const FaultOptions& faults,
                                              std::uint64_t dispatch_seed) noexcept {
  return faults.seed != 0 ? faults.seed : dispatch_seed ^ kFaultSeedSalt;
}

// What the control loop may see and do to the fleet.  Every call happens
// at a tick, a delivery or a record instant, never per event.
class FleetView {
 public:
  virtual ~FleetView() = default;

  [[nodiscard]] virtual unsigned num_servers() const = 0;
  [[nodiscard]] virtual unsigned serving_count() const = 0;
  [[nodiscard]] virtual unsigned committed_count() const = 0;
  [[nodiscard]] virtual unsigned powered_count() const = 0;
  [[nodiscard]] virtual unsigned available_count() const = 0;
  [[nodiscard]] virtual std::uint64_t jobs_in_system() const = 0;
  [[nodiscard]] virtual double speed() const = 0;
  [[nodiscard]] virtual double power_w() const = 0;

  // Actuation: reconcile towards `target` committed servers / run the
  // fleet at `speed`.
  virtual void set_target(double now, unsigned target) = 0;
  virtual void set_speed(double now, double speed) = 0;

  // Whole-run job totals: past admission control (routed or dropped), and
  // shed by it.
  [[nodiscard]] virtual std::uint64_t admitted() const = 0;
  [[nodiscard]] virtual std::uint64_t shed() const = 0;

  // Response statistics since the previous call: the time-series window
  // (drained once per control tick while a recorder is attached) and the
  // timeline's mean response (drained once per record point).
  [[nodiscard]] virtual PeriodWindowStats take_period_window() = 0;
  [[nodiscard]] virtual double take_record_mean_response() = 0;

  // Whole-run power transitions, and the fleet-mean wear fraction the
  // time series reports (core/reliability.h).
  [[nodiscard]] virtual std::uint64_t boots() const = 0;
  [[nodiscard]] virtual std::uint64_t shutdowns() const = 0;
  [[nodiscard]] virtual double wear_fraction() const = 0;
};

class ControlLoop {
 public:
  // Builds the facade and seeds it with the fleet's t = 0 state, and arms
  // the controller-outage process on `queue`.  Everything passed in must
  // outlive the loop.
  ControlLoop(Controller& controller, const SimulationOptions& options,
              std::uint64_t dispatch_seed, FleetView& fleet,
              AdmissionController& admission, EventQueue& queue);

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  // One control tick: ships the fleet's telemetry sample (`local_rate` is
  // the arrival rate it measured), then either consults the controller and
  // transmits its commands, or, while the controller is down, counts a
  // missed tick.  The engine schedules the next tick.
  void on_tick(double now, bool long_tick, double local_rate);

  // Handles a control-plane event popped from the queue: a delayed
  // telemetry / command / ack delivery or a controller fail / recover edge.
  void on_event(const Event& event);

  // Appends one timeline point; `arrivals` counts offered arrivals since
  // the previous point.
  void record_timeline(double now, std::uint64_t arrivals);

  // Warmup boundary: ticks before it are excluded from the measured
  // infeasible-tick ratio, and later time-series samples are "measured".
  void begin_measuring(double now);

  // Folds the control plane into `result` at `end` (whole-run channel and
  // actuator totals, measured tick ratios, reliability plan means, the
  // timeline, lifecycle histograms) and freezes `registry` into
  // result.counters with the cp.* namespace merged in.  Call once, last:
  // the engine has already registered its own counters and filled
  // result.unavailability and the wear fields the gauges read.
  void finish(double end, MetricRegistry& registry, SimResult& result);

 private:
  [[nodiscard]] ControlPlane& cp() noexcept { return *cp_box_; }
  void build_facade();
  [[nodiscard]] TelemetryFrame sample(double now, double rate) const;
  void ship_telemetry(double now, const TelemetryFrame& frame);
  void send_ack(double now, const Command& cmd);
  void apply_command(double now, const Command& cmd);
  void transmit(double now, const Command& cmd);
  void dispatch_decision(double now, const ControlPlane::Decision& decision);
  void exit_safe_mode(double now);
  void miss_tick(double now, double local_rate, bool short_tick);
  void on_controller_fail(double now, std::uint32_t subject);
  void on_controller_recover(double now);
  void observe_control(bool long_tick, const ControlContext& ctx,
                       const ControlAction& action, double period_start);
  void record_ts(double now, bool long_tick, double local_rate,
                 const ControlContext& ctx, const ControlAction* action);

  Controller& controller_;
  const SimulationOptions& options_;
  FleetView& fleet_;
  AdmissionController& admission_;
  EventQueue& queue_;
  TraceCollector* const trace_;
  const std::uint64_t control_seed_;
  ControlPlaneOptions cp_options_;
  ControlChannel channel_;
  const bool chan_on_;
  // Commands take the generation-stamped path whenever the channel or the
  // ack/retry protocol is on; otherwise they apply in place.
  const bool cmd_path_;

  // The facade lives in an optional so the crash-recovery modes can tear
  // it down and rebuild it mid-run.
  std::optional<ControlPlane> cp_box_;
  // Pristine t = 0 image for cold restarts (empty unless that mode is on).
  std::string pristine_snapshot_;

  SlotStore<TelemetryFrame> telemetry_in_flight_;
  SlotStore<Command> commands_in_flight_;
  SlotStore<Command> acks_in_flight_;

  // Fleet side of the command protocol.
  std::uint64_t last_applied_gen_[kNumCommandKinds] = {0, 0};
  std::uint64_t cmd_duplicates_ = 0;
  std::uint64_t cmd_rejected_era_ = 0;

  // Controller outages and the watchdog.
  unsigned controller_down_depth_ = 0;  // outages may overlap
  unsigned missed_short_ticks_ = 0;     // consecutive
  std::uint64_t ticks_missed_ = 0;
  bool in_safe_mode_ = false;
  double safe_mode_entered_at_ = 0.0;
  double safe_mode_time_s_ = 0.0;
  std::uint64_t safe_mode_entries_ = 0;
  // Safe mode rejects commands stamped by an incarnation older than this.
  std::uint32_t safe_min_era_ = 0;

  // Tick accounting (warm_* snapshot it at the warmup boundary).
  std::uint64_t ticks_ = 0;
  std::uint64_t infeasible_ = 0;
  std::uint64_t warm_ticks_ = 0;
  std::uint64_t warm_infeasible_ = 0;
  bool in_warmup_;
  double measure_start_ = 0.0;
  double last_short_tick_ = 0.0;  // trace spans tile the timeline
  double last_long_tick_ = 0.0;

  // Reliability plan: sticky per-tick scalars and whole-run means.
  double solved_spares_ = 0.0;
  double availability_est_ = 0.0;
  double reliab_avail_sum_ = 0.0;
  double reliab_spares_sum_ = 0.0;
  std::uint64_t reliab_plan_ticks_ = 0;

  std::vector<TimelinePoint> timeline_;
  double last_record_ = 0.0;

  // Time-series recorder state.  Cumulative energy is a left-rule
  // integral of instantaneous power sampled at ticks.
  TimeSeriesRecorder* const ts_;
  double ts_energy_j_ = 0.0;
  double ts_last_power_w_ = 0.0;
  double ts_last_power_t_ = 0.0;
  double ts_target_m_;
  struct TsPrevCounters {
    std::uint64_t telemetry_dropped = 0;
    std::uint64_t commands_dropped = 0;
    std::uint64_t acks_dropped = 0;
    std::uint64_t retries = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t ticks_missed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t boots = 0;
    std::uint64_t shutdowns = 0;
  } ts_prev_;
};

}  // namespace gc
