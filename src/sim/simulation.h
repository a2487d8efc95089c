// The simulation loop: wires a Workload, a Cluster and a Controller
// together over one EventQueue and produces a SimResult.
//
// Event choreography per step:
//   * kArrival        — route the pending job, pull the next one from the
//                       workload and schedule it (in the queue's one-entry
//                       arrival slot, sim/event_queue.h);
//   * kDeparture      — complete the job on its server, record metrics;
//   * kShortTick      — measure the arrival rate over the elapsed short
//                       period, ask the controller, apply speed changes;
//   * kLongTick       — ask the controller, apply server-count changes
//                       (scheduled before the short tick at equal times so
//                       a long decision wins the tie);
//   * kRecord         — sample the timeline;
//   * kWarmupEnd      — reset metrics and snapshot energy so reported
//                       numbers exclude the transient;
//   * kTelemetryDeliver / kCommandDeliver / kAckDeliver — delayed
//                       control-plane messages (sim/control_channel.h;
//                       zero-latency messages are delivered synchronously
//                       and never reach the queue);
//   * kControllerFail / kControllerRecover — controller outage edges; a
//                       watchdog counts missed short ticks while down and
//                       drops the fleet into a safe static fallback
//                       (all-on, nominal frequency) when it trips.
//
// Ticks, deliveries, outage edges and record points are forwarded to the
// control loop both engines share (sim/control_loop.h); this loop owns the
// arrivals, departures, server transitions and faults.
//
// The run ends when the workload is exhausted AND all jobs have departed,
// or at `hard_stop_s` if configured (overload protection).
#pragma once

#include <memory>
#include <optional>

#include "control/actuator.h"
#include "core/reliability.h"
#include "cp/controller.h"
#include "obs/audit.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/admission.h"
#include "sim/cluster.h"
#include "sim/control_channel.h"
#include "sim/event_queue.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "workload/workload.h"

namespace gc {

// ControlContext / ControlExplain / ControlAction / Controller moved to
// cp/controller.h (the transport-agnostic control-plane layer); included
// above so existing simulator-facing code keeps compiling unchanged.

struct SimulationOptions {
  double t_ref_s = 0.10;
  double warmup_s = 0.0;
  // 0 disables timeline recording.
  double record_interval_s = 0.0;
  // Safety stop even if jobs are still in flight (0 = run to drain).
  double hard_stop_s = 0.0;
  // Expected upper bound on concurrently pending events.  The event queue
  // reserve()s this up front so the hot loop never reallocates its heap,
  // slot table or free list while the live set stays within the hint
  // (bench/perf_smoke asserts flatness in steady state).  A hint, not a
  // cap; 0 keeps default growth.  The sharded engine divides it across
  // shards.
  std::size_t expected_events_hint = 0;
  // Fault injection; inert unless faults.enabled().
  FaultOptions faults;
  // Graceful degradation via probabilistic shedding; inert unless enabled.
  AdmissionOptions admission;
  // Control-plane degradation (DESIGN.md §8).  A zero-loss/zero-latency
  // channel — even with the actuator and watchdog enabled — is
  // bit-identical to all three left at defaults (pinned goldens hold).
  ControlChannelOptions channel;          // lossy/latent management network
  ActuatorOptions actuator;               // ack/retry command protocol
  ControllerFaultOptions controller_faults;  // fail-stop controller + watchdog
  // Observational reliability readout (core/reliability.h, header-only —
  // no solver dependency): wear fractions from the cluster's transition
  // counters and availability gauges in the end-of-run registry.  Inert at
  // defaults; never feeds back into control decisions, so the pinned
  // determinism goldens hold whether or not it is set.
  ReliabilityOptions reliability;
  // Observability sinks (non-owning; must outlive the run).  Null = off.
  // Both are strictly observational: attaching them never changes event
  // order, RNG draws or any SimResult field (tests/test_obs_determinism).
  // Do not share one sink across concurrent runs (exp/runner parallelism).
  TraceCollector* trace = nullptr;
  DecisionAuditLog* audit = nullptr;
  // Per-control-period time series (obs/timeseries.h): one sample on every
  // short/long/missed tick.  Attaching it additionally enables the
  // MetricsCollector period window.  Its energy_j column is a left-rule
  // integral of instantaneous power on the control grid — an observability
  // estimate; SimResult::energy (the per-server EnergyMeter) stays the
  // authoritative number.  Same contract as the other sinks: observational,
  // non-owning, not shared across concurrent runs.
  TimeSeriesRecorder* timeseries = nullptr;
};

// The sequential engine's fault plane (DESIGN.md §11.1): one injector over
// the whole fleet, with `faults` validated against its size.  Server i's
// failure clock is stream split(i + 1) of Rng(seed, 0); every boot hang
// draws from the one shared stream split(0xb007).
[[nodiscard]] FaultInjector sequential_fault_injector(const FaultOptions& faults,
                                                      unsigned num_servers,
                                                      std::uint64_t seed);

// Runs one simulation.  The workload is consumed (reset it to reuse).
[[nodiscard]] SimResult run_simulation(Workload& workload, const ClusterOptions& cluster,
                                       Controller& controller,
                                       const SimulationOptions& options);

}  // namespace gc
