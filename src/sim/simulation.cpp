#include "sim/simulation.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/control_loop.h"
#include "stats/accumulators.h"
#include "util/assert.h"

namespace gc {
namespace {

constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControllerRecover) + 1;

// The control loop's view of a sequential Cluster.
class ClusterFleet final : public FleetView {
 public:
  ClusterFleet(Cluster& cluster, MetricsCollector& metrics,
               const AdmissionController& admission, const WearModel& wear)
      : cluster_(cluster), metrics_(metrics), admission_(admission), wear_(wear) {}

  unsigned num_servers() const override { return cluster_.num_servers(); }
  unsigned serving_count() const override { return cluster_.serving_count(); }
  unsigned committed_count() const override { return cluster_.committed_count(); }
  unsigned powered_count() const override { return cluster_.powered_count(); }
  unsigned available_count() const override { return cluster_.available_count(); }
  std::uint64_t jobs_in_system() const override { return cluster_.jobs_in_system(); }
  double speed() const override { return cluster_.current_speed(); }
  double power_w() const override { return cluster_.instantaneous_power(); }
  void set_target(double now, unsigned target) override {
    cluster_.set_active_target(now, target);
  }
  void set_speed(double now, double speed) override {
    cluster_.set_all_speeds(now, speed);
  }
  std::uint64_t admitted() const override { return cluster_.totals().admitted; }
  std::uint64_t shed() const override { return admission_.shed(); }
  PeriodWindowStats take_period_window() override {
    return metrics_.take_period_window();
  }
  double take_record_mean_response() override {
    return metrics_.take_window_mean_response();
  }
  std::uint64_t boots() const override { return cluster_.totals().boots; }
  std::uint64_t shutdowns() const override { return cluster_.totals().shutdowns; }
  // Fleet mean from whole-run totals (uniform budget; the per-server
  // split is folded into SimResult at the end).
  double wear_fraction() const override {
    const unsigned n = cluster_.num_servers();
    if (n == 0) return 0.0;
    return wear_.wear_fraction(boots(), shutdowns()) / static_cast<double>(n);
  }

 private:
  Cluster& cluster_;
  MetricsCollector& metrics_;
  const AdmissionController& admission_;
  const WearModel& wear_;
};

}  // namespace

FaultInjector sequential_fault_injector(const FaultOptions& faults, unsigned num_servers,
                                        std::uint64_t seed) {
  faults.validate(num_servers);
  Rng root(seed, /*stream=*/0);
  std::vector<Rng> clocks;
  clocks.reserve(num_servers);
  for (unsigned i = 0; i < num_servers; ++i) clocks.push_back(root.split(i + 1));
  return FaultInjector(faults, std::move(clocks), root.split(0xb007));
}

SimResult run_simulation(Workload& workload, const ClusterOptions& cluster_options,
                         Controller& controller, const SimulationOptions& options) {
  GC_CHECK(options.t_ref_s > 0.0, "SimulationOptions: t_ref must be positive");
  GC_CHECK(options.warmup_s >= 0.0, "SimulationOptions: warmup must be >= 0");
  const double t_short = controller.short_period_s();
  const double t_long = controller.long_period_s();
  GC_CHECK(t_short > 0.0 && t_long > 0.0, "controller periods must be positive");

  EventQueue queue;
  if (options.expected_events_hint > 0) queue.reserve(options.expected_events_hint);
  Cluster cluster(cluster_options, &queue);
  MetricsCollector metrics(options.t_ref_s);

  // Observability: the registry is owned by the run (single-writer, so the
  // hot-path increments below are plain adds); the trace/audit sinks are
  // caller-owned and may be null.  Everything here is observational — no
  // RNG draw or event ordering depends on it.
  MetricRegistry registry;
  std::array<Counter*, kNumEventTypes> events_dispatched{};
  for (std::size_t t = 0; t < kNumEventTypes; ++t) {
    events_dispatched[t] = &registry.counter(
        std::string("sim.events.") + to_string(static_cast<EventType>(t)));
  }
  TraceCollector* trace = kTracingCompiledIn ? options.trace : nullptr;
  cluster.set_trace(trace);

  // Fault injection: armed before the first event so background failure
  // clocks start at t = 0.
  std::optional<FaultInjector> injector;
  if (options.faults.enabled()) {
    injector.emplace(sequential_fault_injector(
        options.faults, cluster.num_servers(),
        fault_seed(options.faults, cluster_options.dispatch_seed)));
    cluster.set_fault_injector(&*injector);
    injector->arm(queue);
  }

  // Admission control draws from its own stream; with shedding never
  // triggered the run is event-for-event identical to admission disabled.
  AdmissionController admission(
      options.admission, options.t_ref_s,
      Rng(cluster_options.dispatch_seed, kAdmissionRngStream));

  // Reliability readout (core/reliability.h; observational only): the wear
  // model charges the cluster's transition counters against the configured
  // cycles-to-failure budget.
  options.reliability.validate();
  const WearModel wear(options.reliability);

  // The control plane — facade, management channel, actuation, outages and
  // the per-tick observability — is the shared control loop (sim/control_loop.h);
  // this loop only forwards ticks and control-plane events to it.
  ClusterFleet fleet(cluster, metrics, admission, wear);
  if (options.timeseries != nullptr) metrics.enable_period_window();
  ControlLoop loop(controller, options, cluster_options.dispatch_seed, fleet,
                   admission, queue);

  // Pending arrival: exactly one kArrival event is outstanding at a time,
  // so it waits in the queue's arrival slot instead of its heap.
  std::optional<JobArrival> pending = workload.next();
  std::uint64_t next_job_id = 1;
  if (pending) queue.schedule_arrival(pending->time);

  // Ticks: long scheduled before short at t = 0 so the provisioning
  // decision precedes the frequency decision on ties.
  queue.schedule(0.0, EventType::kLongTick);
  queue.schedule(0.0, EventType::kShortTick);
  if (options.record_interval_s > 0.0) {
    queue.schedule(options.record_interval_s, EventType::kRecord);
  }
  if (options.warmup_s > 0.0) queue.schedule(options.warmup_s, EventType::kWarmupEnd);

  // Rate measurement between short ticks.
  std::uint64_t arrivals_in_window = 0;
  double last_short_tick = 0.0;
  // Rate measurement between record points.
  std::uint64_t arrivals_in_record = 0;

  // Time-weighted serving count / speed / queue length / availability.
  TimeWeightedAccumulator serving_avg(0.0);
  TimeWeightedAccumulator speed_avg(0.0);
  TimeWeightedAccumulator jobs_avg(0.0);
  TimeWeightedAccumulator available_avg(0.0);

  // The run's integer totals; the admission controller counts the shed.
  auto run_totals = [&] {
    FleetTotals totals = cluster.totals();
    totals.shed = admission.shed();
    return totals;
  };
  // Warmup snapshots.
  EnergyBreakdown warm_energy;
  FleetTotals warm;
  double measure_start = 0.0;
  bool in_warmup = options.warmup_s > 0.0;

  SimResult result;
  double now = 0.0;
  bool workload_done = !pending.has_value();

  while (auto event = queue.pop()) {
    // The run is over once the workload is exhausted and every job has
    // departed; pending ticks/completions past that point would only
    // stretch the horizon with idle time.
    if (workload_done && !pending && cluster.jobs_in_system() == 0 &&
        event->type != EventType::kDeparture && event->type != EventType::kArrival) {
      break;
    }
    now = event->time;
    if (options.hard_stop_s > 0.0 && now > options.hard_stop_s) break;

    serving_avg.advance(now, static_cast<double>(cluster.serving_count()));
    speed_avg.advance(now, cluster.current_speed());
    jobs_avg.advance(now, static_cast<double>(cluster.jobs_in_system()));
    available_avg.advance(now, static_cast<double>(cluster.available_count()));

    events_dispatched[static_cast<std::size_t>(event->type)]->inc();

    switch (event->type) {
      case EventType::kArrival: {
        GC_CHECK(pending.has_value(), "arrival event without pending job");
        // Rate measurements see the *offered* load (before shedding) so the
        // controller keeps planning against true demand and scales back up
        // when capacity returns.
        ++arrivals_in_window;
        ++arrivals_in_record;
        if (admission.admit()) {
          Job job;
          job.id = next_job_id++;
          job.arrival_time = pending->time;
          job.size = pending->size;
          job.remaining = pending->size;
          cluster.route_job(now, job);
        } else {
          trace_instant(trace, now, "admission", "shed");
        }
        pending = workload.next();
        if (pending) {
          GC_CHECK(pending->time >= now, "workload produced non-monotone arrivals");
          queue.schedule_arrival(pending->time);
        } else {
          workload_done = true;
        }
        break;
      }
      case EventType::kDeparture: {
        const Job finished = cluster.handle_departure(now, event->subject);
        metrics.on_job_completed(now, finished);
        break;
      }
      case EventType::kBootComplete:
        cluster.handle_boot_complete(now, event->subject);
        break;
      case EventType::kShutdownComplete:
        cluster.handle_shutdown_complete(now, event->subject);
        break;
      case EventType::kServerFail:
        GC_CHECK(injector.has_value(), "fail event without an injector");
        (void)injector->on_fail_event(now, event->subject, cluster, queue);
        trace_instant(trace, now, "fault", "server-fail");
        break;
      case EventType::kServerRepair:
        GC_CHECK(injector.has_value(), "repair event without an injector");
        injector->on_repair_event(now, event->subject, cluster, queue);
        trace_instant(trace, now, "fault", "server-repair");
        break;
      case EventType::kBootTimeout:
        GC_CHECK(injector.has_value(), "boot timeout without an injector");
        injector->on_boot_timeout(now, event->subject, cluster, queue);
        trace_instant(trace, now, "fault", "boot-timeout");
        break;
      case EventType::kShortTick:
      case EventType::kLongTick: {
        // The fleet measures the arrival rate over the short window; a long
        // tick samples the partial window without resetting it.
        const bool long_tick = event->type == EventType::kLongTick;
        const double elapsed = now - last_short_tick;
        const double local_rate =
            elapsed > 0.0 ? static_cast<double>(arrivals_in_window) / elapsed : 0.0;
        if (!long_tick) {
          arrivals_in_window = 0;
          last_short_tick = now;
        }
        loop.on_tick(now, long_tick, local_rate);
        // Keep ticking while there is anything left to happen.
        if (!workload_done || cluster.jobs_in_system() > 0) {
          queue.schedule(now + (long_tick ? t_long : t_short), event->type);
        }
        break;
      }
      case EventType::kTelemetryDeliver:
      case EventType::kCommandDeliver:
      case EventType::kAckDeliver:
      case EventType::kControllerFail:
      case EventType::kControllerRecover:
        loop.on_event(*event);
        break;
      case EventType::kRecord: {
        loop.record_timeline(now, arrivals_in_record);
        arrivals_in_record = 0;
        if (!workload_done || cluster.jobs_in_system() > 0) {
          queue.schedule(now + options.record_interval_s, EventType::kRecord);
        }
        break;
      }
      case EventType::kWarmupEnd: {
        in_warmup = false;
        loop.begin_measuring(now);
        metrics.begin_measuring();
        serving_avg = TimeWeightedAccumulator(now);
        speed_avg = TimeWeightedAccumulator(now);
        jobs_avg = TimeWeightedAccumulator(now);
        available_avg = TimeWeightedAccumulator(now);
        cluster.flush_energy(now);
        warm_energy = cluster.energy();
        warm = run_totals();
        measure_start = now;
        break;
      }
    }
  }

  cluster.flush_energy(now);
  if (in_warmup) {
    // The workload drained before the warmup ended: there is no measured
    // interval at all.  Report an empty (not a warmup-polluted) result.
    metrics.begin_measuring();
    warm_energy = cluster.energy();
    warm = run_totals();
    measure_start = now;
  }
  const EnergyBreakdown total = cluster.energy();
  result.energy.busy_j = total.busy_j - warm_energy.busy_j;
  result.energy.idle_j = total.idle_j - warm_energy.idle_j;
  result.energy.transition_j = total.transition_j - warm_energy.transition_j;
  result.energy.off_j = total.off_j - warm_energy.off_j;

  result.sim_time_s = now - measure_start;
  result.completed_jobs = metrics.completed();

  result.response_hist = metrics.response_histogram();
  result.mean_response_s = metrics.response().mean();
  result.p95_response_s = metrics.p95();
  result.p99_response_s = metrics.p99();
  result.max_response_s = metrics.completed() > 0 ? metrics.response().max() : 0.0;
  result.job_violation_ratio = metrics.job_violation_ratio();

  result.mean_power_w =
      result.sim_time_s > 0.0 ? result.energy.total_j() / result.sim_time_s : 0.0;
  result.mean_serving = serving_avg.time_average();
  result.mean_speed = speed_avg.time_average();
  result.mean_jobs_in_system = jobs_avg.time_average();
  result.mean_available = available_avg.time_average();
  result.unavailability =
      available_avg.elapsed() > 0.0
          ? 1.0 - result.mean_available / static_cast<double>(cluster.num_servers())
          : 0.0;

  // Per-server wear from the transition counters.
  const auto server_boots = cluster.server_boots();
  const auto server_shutdowns = cluster.server_shutdowns();
  result.server_cycles.resize(server_boots.size());
  double wear_sum = 0.0;
  for (std::size_t i = 0; i < server_boots.size(); ++i) {
    result.server_cycles[i] = server_boots[i] + server_shutdowns[i];
    const double frac = wear.wear_fraction(server_boots[i], server_shutdowns[i]);
    wear_sum += frac;
    result.wear_fraction_max = std::max(result.wear_fraction_max, frac);
  }
  result.wear_fraction_mean =
      server_boots.empty() ? 0.0 : wear_sum / static_cast<double>(server_boots.size());

  // The lifecycle deltas, and the whole-run totals (including warmup) for
  // the counters snapshot, registered after the per-event counters above.
  report_fleet_totals(run_totals(), warm, result, registry);
  registry.gauge("sim.time_s").set(now);
  loop.finish(now, registry, result);
  return result;
}

}  // namespace gc
