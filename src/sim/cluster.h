// The simulated cluster of the sequential engine: one FleetStore
// (sim/fleet_store.h: the server lifecycle, its counts and sets, the watts
// column, the speed log and the servers' event scheduling) plus what only
// this model has — the global dispatcher, revive-then-boot and least-work
// drain, crash failover, injector boot hangs and lifecycle trace spans.
// When faults happen is the FaultInjector's business (sim/fault_injector.h,
// the fault plane both engines share); what a crash means here is
// fail_server / timeout_boot / repair_server below.
//
// Events go on an EventQueue provided by the simulation loop, which routes
// them back into the cluster's handlers.
//
// Control plane semantics (see DESIGN.md §1.2):
//   * set_active_target(m): reconciles towards m servers that are either
//     serving or booting.  To grow, draining servers are revived first
//     (free), then OFF servers are booted (boot_delay, full power, no
//     service).  To shrink, serving servers with the least outstanding
//     work are put into draining; a draining server shuts down as soon as
//     its queue empties (possibly immediately).
//   * set_all_speeds(s): applied to every server (a dark one catches up at
//     its next transition); in-flight work is re-timed (departure events
//     rescheduled).
#pragma once

#include <cstdint>
#include <span>

#include "obs/trace.h"
#include "power/power_model.h"
#include "sim/dispatcher.h"
#include "sim/event_queue.h"
#include "sim/fleet_store.h"
#include "sim/job.h"
#include "sim/server.h"

namespace gc {

class FaultInjector;

struct ClusterOptions {
  unsigned num_servers = 64;
  PowerModelParams power = {};
  TransitionModel transition = {};
  DispatchPolicy dispatch = DispatchPolicy::kJoinShortestQueue;
  unsigned initial_active = 64;  // servers ON at t = 0
  double initial_speed = 1.0;
  std::uint64_t dispatch_seed = 42;
};

class Cluster {
 public:
  // `queue` must outlive the cluster.
  Cluster(const ClusterOptions& options, EventQueue* queue);

  // -- control plane --------------------------------------------------------
  void set_active_target(double now, unsigned target);
  void set_all_speeds(double now, double speed) { store_.set_speed_all(now, speed); }

  // Fleet counts are maintained on every lifecycle transition by the
  // FleetStore, so all of these are O(1).
  [[nodiscard]] unsigned serving_count() const noexcept { return store_.serving_count(); }
  // Serving + booting: the capacity already committed.
  [[nodiscard]] unsigned committed_count() const noexcept {
    return store_.committed_count();
  }
  // Anything not OFF (including FAILED: a crashed machine is not off).
  [[nodiscard]] unsigned powered_count() const noexcept { return store_.powered_count(); }
  // Anything not FAILED: the fleet a failure-aware controller can draw on.
  [[nodiscard]] unsigned available_count() const noexcept {
    return store_.available_count();
  }
  [[nodiscard]] unsigned failed_count() const noexcept { return store_.failed_count(); }
  // Indices of the serving() servers, ascending: the list the dispatcher
  // picks from (rebuilt here if a transition changed it).
  [[nodiscard]] std::span<const std::uint32_t> serving_list() {
    store_.refresh_serving_list();
    return store_.serving_list();
  }
  [[nodiscard]] unsigned num_servers() const noexcept { return store_.size(); }
  // The commanded speed.
  [[nodiscard]] double current_speed() const noexcept { return store_.speed(); }

  // -- data plane (called by the simulation loop) ---------------------------
  // Routes an arrival; returns false if dropped (no serving server — only
  // possible if the controller drove the cluster to zero, which
  // set_active_target prevents by keeping >= 1 serving/booting).
  bool route_job(double now, const Job& job);

  // Departure event for `server`: returns the finished job.
  [[nodiscard]] Job handle_departure(double now, std::uint32_t server);
  void handle_boot_complete(double now, std::uint32_t server);
  void handle_shutdown_complete(double now, std::uint32_t server);

  // -- fault plane (driven by sim/fault_injector.h) -------------------------
  // When set (before any boot command), every boot consults the injector
  // for a sampled hang (on the sequential engine's shared boot-hang
  // stream): hung boots get a kBootTimeout event instead of kBootComplete.
  // `injector` must outlive the cluster.
  void set_fault_injector(FaultInjector* injector) noexcept { faults_ = injector; }

  // -- observability --------------------------------------------------------
  // Optional trace sink (obs/trace.h); per-server boot/shutdown/failed
  // lifecycle phases are recorded as async spans keyed by server index.
  // Null (the default) disables recording.  `trace` must outlive the
  // cluster.  Strictly observational.
  void set_trace(TraceCollector* trace) noexcept { trace_ = trace; }

  // Fail-stop crash of a powered server.  Cancels its pending events,
  // re-dispatches the orphaned jobs to surviving serving servers (jobs
  // that cannot be placed are lost and counted).  Returns false — a no-op —
  // if the server is OFF or already FAILED.
  bool fail_server(double now, std::uint32_t server);
  // A hung boot hit its watchdog timeout: the BOOTING server fails.
  void timeout_boot(double now, std::uint32_t server);
  // FAILED -> OFF; the next target command may boot it again.
  void repair_server(double now, std::uint32_t server);

  // -- accounting -----------------------------------------------------------
  void flush_energy(double now) { store_.flush_energy(now); }
  // Per-category joules; call flush_energy first.
  [[nodiscard]] EnergyBreakdown energy() const { return store_.energy(); }
  [[nodiscard]] double instantaneous_power() const { return store_.power_w(); }
  // One server's entry in the dense power column the fold above reads.
  [[nodiscard]] double watts(std::uint32_t server) const { return store_.watts(server); }
  [[nodiscard]] std::size_t jobs_in_system() const noexcept {
    return store_.jobs_in_system();
  }
  // Whole-run totals (shed is counted by the admission controller).
  [[nodiscard]] const FleetTotals& totals() const noexcept { return store_.totals(); }
  // Per-server transition counts (index = server index), the raw signal
  // behind the wear-out model (core/reliability.h).
  [[nodiscard]] std::span<const std::uint32_t> server_boots() const noexcept {
    return store_.server_boots();
  }
  [[nodiscard]] std::span<const std::uint32_t> server_shutdowns() const noexcept {
    return store_.server_shutdowns();
  }

  // A dark (OFF or FAILED) server's speed and meter catch up with the
  // fleet's speed commands only at its next transition or energy flush.
  [[nodiscard]] const Server& server(std::uint32_t index) const;

 private:
  void boot(double now, std::uint32_t server);
  void drain(double now, std::uint32_t server);
  // Enqueues on the dispatcher's pick; false if nothing is serving.
  bool dispatch(double now, const Job& job);

  PowerModel power_;  // shared by every server; declared before store_
  FleetStore store_;
  Dispatcher dispatcher_;
  FaultInjector* faults_ = nullptr;  // non-owning; may be null
  TraceCollector* trace_ = nullptr;  // non-owning; may be null
};

}  // namespace gc
