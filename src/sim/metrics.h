// Simulation output: response-time statistics, SLA accounting, energy and
// an optional sampled timeline for the figure benches.
#pragma once

#include <cstdint>
#include <vector>

#include "cp/lifecycle.h"
#include "obs/counters.h"
#include "sim/fleet_store.h"
#include "sim/job.h"
#include "stats/accumulators.h"
#include "stats/log_histogram.h"

namespace gc {

struct TimelinePoint {
  double time = 0.0;
  double arrival_rate = 0.0;  // measured over the last record interval
  unsigned serving = 0;
  unsigned powered = 0;
  unsigned available = 0;     // servers not FAILED
  double speed = 1.0;
  double power_watts = 0.0;     // instantaneous
  double jobs_in_system = 0.0;
  double window_mean_response_s = 0.0;  // mean response over the interval
  double admit_probability = 1.0;  // < 1 while admission control sheds
};

// Response distribution of one control period, produced by
// MetricsCollector::take_period_window() for the time-series recorder.
// mean is exact; p95/p99 come from a per-window LogHistogram, so they carry
// its relative-error bound (and are 0 when the window completed no jobs).
struct PeriodWindowStats {
  std::uint64_t completed = 0;
  double mean_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double violation_fraction = 0.0;  // per-job tail violations in the window
};

class MetricsCollector {
 public:
  explicit MetricsCollector(double t_ref_s);

  // Called for every completed job, warmup included.
  void on_job_completed(double now, const Job& job);

  // Starts the measured interval: forgets the responses seen so far (mean,
  // tails, violation ratio, histogram).  The timeline / period windows keep
  // running.
  void begin_measuring() noexcept;

  // Rolls the per-window response aggregate (used by the timeline).
  [[nodiscard]] double take_window_mean_response() noexcept;

  // Opts into per-control-period window tracking (a LogHistogram reset on
  // every take_period_window() call).  Off by default — the extra
  // bookkeeping is only paid when a TimeSeriesRecorder is attached.
  void enable_period_window() noexcept { period_window_on_ = true; }
  [[nodiscard]] bool period_window_enabled() const noexcept {
    return period_window_on_;
  }
  // Returns the stats of the window elapsed since the previous call and
  // starts a new window.  All-zero when disabled or the window was empty.
  [[nodiscard]] PeriodWindowStats take_period_window() noexcept;

  // Response distribution with the same coverage as response(): every job
  // completed since begin_measuring().  Exactly mergeable across
  // replications.
  [[nodiscard]] const LogHistogram& response_histogram() const noexcept {
    return response_hist_;
  }

  [[nodiscard]] const MeanVarAccumulator& response() const noexcept { return response_; }
  // Tails read from response_histogram(): bucket midpoints within
  // LogHistogram::kRelativeErrorBound (1/128) of the true order statistic; 0 when empty.
  [[nodiscard]] double p95() const noexcept { return response_hist_.quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return response_hist_.quantile(0.99); }
  // Fraction of jobs whose individual response time exceeded t_ref.  (The
  // paper guarantees the *mean*; per-job tail violations are reported as a
  // stricter secondary metric.)
  [[nodiscard]] double job_violation_ratio() const noexcept { return violations_.ratio(); }
  // Jobs completed since begin_measuring().
  [[nodiscard]] std::uint64_t completed() const noexcept { return response_.count(); }
  [[nodiscard]] double t_ref() const noexcept { return t_ref_; }

 private:
  double t_ref_;
  MeanVarAccumulator response_;
  MeanVarAccumulator window_response_;
  RatioAccumulator violations_;
  LogHistogram response_hist_;
  // Per-control-period window (valid only while period_window_on_).
  bool period_window_on_ = false;
  LogHistogram period_hist_;
  std::uint64_t period_completed_ = 0;
  std::uint64_t period_violations_ = 0;
};

struct SimResult {
  std::uint64_t completed_jobs = 0;
  std::uint64_t dropped_jobs = 0;
  // Graceful degradation / fault accounting (all post-warmup).
  std::uint64_t shed_jobs = 0;          // rejected by admission control
  std::uint64_t failures = 0;           // fail-stop crashes (incl. boot timeouts)
  std::uint64_t repairs = 0;
  std::uint64_t boot_timeouts = 0;
  std::uint64_t jobs_redispatched = 0;  // crash survivors moved to another server
  std::uint64_t jobs_lost = 0;          // destroyed by a crash
  double sim_time_s = 0.0;      // measured horizon (post-warmup)
  double mean_response_s = 0.0;
  double p95_response_s = 0.0;
  double p99_response_s = 0.0;
  double max_response_s = 0.0;
  double job_violation_ratio = 0.0;   // per-job tail violations
  double window_violation_ratio = 0.0;  // fraction of windows with mean > t_ref
  EnergyBreakdown energy;
  double mean_power_w = 0.0;    // energy / sim_time
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  double mean_serving = 0.0;    // time-average serving servers
  double mean_speed = 0.0;      // time-average speed (over serving time)
  double mean_jobs_in_system = 0.0;  // time-average L (Little's law: L = λT)
  double mean_available = 0.0;  // time-average servers not FAILED
  // Time-average fraction of the fleet FAILED (0 without fault injection).
  double unavailability = 0.0;
  // shed / offered over the measured interval; offered = admitted + shed.
  double shed_ratio = 0.0;
  // Control ticks at which the active policy reported that the guarantee
  // was unachievable (Provisioner infeasibility), and their fraction.
  std::uint64_t infeasible_ticks = 0;
  double infeasible_ratio = 0.0;
  // Control-plane degradation accounting (whole-run, not warmup-deltaed:
  // these describe the management path, not the workload).  All zero when
  // the channel / actuator / controller faults are disabled.
  std::uint64_t telemetry_dropped = 0;  // fleet samples lost controller-ward
  std::uint64_t commands_dropped = 0;   // commands lost fleet-ward
  std::uint64_t acks_dropped = 0;       // acks lost controller-ward
  std::uint64_t command_retries = 0;    // actuator retransmissions
  std::uint64_t command_duplicates = 0; // re-deliveries deduped at the fleet
  std::uint64_t commands_exhausted = 0; // retry budget spent; reconciled to acked
  std::uint64_t ticks_missed = 0;       // control ticks with the controller down
  std::uint64_t safe_mode_entries = 0;  // watchdog trips into static fallback
  double safe_mode_time_s = 0.0;        // time spent in the fallback
  // Solver memo-cache counters (runner-filled; zero when the run was
  // driven without a Provisioner).  Purely observational: cache hits are
  // bit-identical to recomputation, so these never affect other outputs.
  std::uint64_t solver_cache_hits = 0;
  std::uint64_t solver_cache_misses = 0;
  double solver_cache_hit_rate = 0.0;
  // -- reliability readout (appended; core/reliability.h) --------------------
  // Whole-run on/off transition count per server index (boots + shutdowns),
  // the raw wear signal — populated on every run, reliability on or off.
  std::vector<std::uint32_t> server_cycles;
  // Lifetime fraction consumed per the wear model: fleet mean and the
  // worst single server.  0 unless SimulationOptions::reliability sets a
  // cycles-to-failure budget.
  double wear_fraction_mean = 0.0;
  double wear_fraction_max = 0.0;
  // Mean over long-tick plans of the controller-reported closed-form fleet
  // availability / solved spare count; 0 when no policy reported them
  // (only dcp-reliability does).
  double availability_estimate = 0.0;
  double mean_solved_spares = 0.0;
  // Observability snapshot (obs/counters.h): every named counter/gauge the
  // run registered — whole-run event counts by type, lifecycle/fault/shed
  // totals, queue and solver-cache statistics.  Dump with
  // counters.to_json().  Unlike the post-warmup deltas above, counters
  // cover the entire run including warmup.
  CountersSnapshot counters;
  // Post-warmup response-time distribution as an exactly-mergeable
  // LogHistogram.  p95_response_s/p99_response_s are its quantile(0.95) /
  // quantile(0.99); replication harnesses (bench/tab4) pool the histograms
  // with merge() to get whole-experiment percentiles.  The histogram itself
  // is excluded from the determinism checksums (the two scalars are not).
  LogHistogram response_hist;
  // Control-loop actuation latency distributions from the lifecycle
  // tracker (cp/lifecycle.h): decision→ack, decision→apply, end-to-end,
  // and the telemetry age at each issuing decision.  Same contract as
  // response_hist: observational, checksum-excluded, exactly mergeable.
  LogHistogram lifecycle_ack_hist;
  LogHistogram lifecycle_apply_hist;
  LogHistogram lifecycle_e2e_hist;
  LogHistogram lifecycle_obs_age_hist;
  // Every command's reconstructed timeline (issued/retransmits/acked/
  // applied/terminal state) — the `<prefix>.lifecycle.jsonl` payload that
  // `gcinspect --lifecycle` renders.
  std::vector<CommandLifecycle> command_lifecycles;
  std::vector<TimelinePoint> timeline;

  // True when the mean-response-time guarantee held over the whole run.
  [[nodiscard]] bool sla_met(double t_ref_s) const noexcept {
    return mean_response_s <= t_ref_s;
  }
};

}  // namespace gc
