// Per-control-period time series — the trajectory behind a SimResult.
//
// A SimResult is one row of aggregates and the audit log is a causal
// narrative; this recorder is the *quantitative* middle: one sample per
// control instant holding what the controller saw (observed/predicted λ,
// telemetry age), what it commanded (target M, speed), what the fleet
// actually did (serving/powered, instantaneous power, cumulative energy,
// queue depth), the response-time distribution of the elapsed window
// (mean/p95/p99 from a per-window LogHistogram), SLA accounting (window
// violation fraction plus a rolling violation window), and per-period
// deltas of the control-plane counters (chan.*/act.* — drops, retries,
// missed ticks localized in time instead of summed over the run).
//
// Storage is columnar: one std::vector<double> per column in a fixed
// schema, appended in lockstep.  Memory is bounded by kMaxPoints —
// reaching it pairwise-merges adjacent rows and doubles the decimation
// stride, so a run of any length keeps at most kMaxPoints rows, each
// covering `stride()` consecutive control periods.  Merging is
// deterministic and type-aware: instantaneous columns keep the latest
// value, per-period deltas add, window aggregates combine count-weighted
// (p95/p99 conservatively take the max).  A short and a long tick at the
// same simulation instant fold into a single row.
//
// Attaching the recorder is strictly observational (the contract of every
// obs/ sink): no RNG draw, no event, no cluster mutation — recorder on or
// off reproduces the pinned determinism goldens bit-for-bit
// (tests/test_obs_determinism.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "util/csv.h"

namespace gc {

// One control instant, filled by the simulation loop.
struct TimeSeriesSample {
  double time = 0.0;
  bool long_tick = false;
  bool measured = false;  // past warmup
  // -- controller view / plan ------------------------------------------------
  double observed_rate = 0.0;   // newest delivered telemetry sample
  double local_rate = 0.0;      // ground-truth fleet-side measured rate
  double predicted_rate = 0.0;  // ControlExplain::predicted_rate
  double planning_rate = 0.0;   // ControlExplain::planning_rate
  double target_m = 0.0;        // last commanded server target (sticky)
  // -- fleet ground truth ----------------------------------------------------
  unsigned serving = 0;
  unsigned committed = 0;
  unsigned powered = 0;
  unsigned available = 0;
  double speed = 0.0;
  double power_w = 0.0;   // instantaneous
  double energy_j = 0.0;  // cumulative since t = 0 (includes warmup)
  std::uint64_t queue_depth = 0;
  // -- elapsed-window response distribution ----------------------------------
  std::uint64_t window_completed = 0;
  double window_mean_response_s = 0.0;
  double window_p95_response_s = 0.0;
  double window_p99_response_s = 0.0;
  double window_violation_fraction = 0.0;  // per-job tail violations
  bool window_violated = false;  // window mean exceeded t_ref (rolling input)
  // -- admission / degradation ----------------------------------------------
  std::uint64_t d_admitted = 0;  // jobs admitted this period
  std::uint64_t d_shed = 0;      // jobs shed this period
  double admit_probability = 1.0;
  double obs_age_s = 0.0;
  bool safe_mode = false;
  bool infeasible = false;
  // -- per-period control-plane counter deltas (chan.* / act.*) -------------
  std::uint64_t d_telemetry_dropped = 0;
  std::uint64_t d_commands_dropped = 0;
  std::uint64_t d_acks_dropped = 0;
  std::uint64_t d_command_retries = 0;
  std::uint64_t d_command_duplicates = 0;
  std::uint64_t d_ticks_missed = 0;
  // -- reliability (appended columns; core/reliability.h) --------------------
  std::uint64_t d_boots = 0;      // boot commands issued this period
  std::uint64_t d_shutdowns = 0;  // shutdowns begun this period
  double solved_spares = 0.0;     // standing plan's spare count (sticky)
  double availability_est = 0.0;  // plan's closed-form availability (sticky)
  double wear_fraction = 0.0;     // fleet-mean lifetime fraction consumed
};

class TimeSeriesRecorder {
 public:
  // Column ids double as indices into the columnar store; kNumColumns rows
  // the schema.  Order is the CSV column order.
  enum Col : std::size_t {
    kTime = 0, kLongTick, kMeasured,
    kObservedRate, kLocalRate, kPredictedRate, kPlanningRate, kTargetM,
    kServing, kCommitted, kPowered, kAvailable, kSpeed, kPowerW, kEnergyJ,
    kQueueDepth,
    kWinCompleted, kWinMeanT, kWinP95T, kWinP99T, kWinViolFrac,
    kRollingViolFrac,
    kDAdmitted, kDShed, kShedFrac, kAdmitP, kObsAgeS, kSafeMode, kInfeasible,
    kDTelemetryDropped, kDCommandsDropped, kDAcksDropped, kDCmdRetries,
    kDCmdDuplicates, kDTicksMissed,
    kDBoots, kDShutdowns, kSolvedSpares, kAvailEst, kWearFrac,
    kNumColumns
  };

  // Stored-row budget; reaching it halves the series in place and doubles
  // the per-row stride.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 14;
  // Control periods in the rolling SLA-violation window.
  static constexpr std::size_t kSlaWindow = 60;

  TimeSeriesRecorder();

  void append(const TimeSeriesSample& sample);

  // Stored rows (a partially filled stride is not yet a row; exports
  // include it).
  [[nodiscard]] std::size_t size() const noexcept { return num_rows_; }
  // Raw control instants seen (pre-decimation).
  [[nodiscard]] std::uint64_t periods() const noexcept { return periods_; }
  // Control instants folded into one stored row (1 until the first halving).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  // Current rolling SLA-violation fraction over the last kSlaWindow periods.
  [[nodiscard]] double rolling_violation() const noexcept;

  [[nodiscard]] static const std::vector<std::string>& column_names();

  // Column-major view of stored rows (exports also flush the pending
  // partial stride; this accessor does not).
  [[nodiscard]] double value(Col col, std::size_t row) const;

  // Export: CSV (util/csv, `t` first column), including the pending
  // partial stride as a final row.
  [[nodiscard]] CsvTable to_csv_table() const;
  void write_csv(const std::filesystem::path& path) const;

 private:
  using Row = std::vector<double>;  // kNumColumns wide

  static Row to_row(const TimeSeriesSample& sample);
  // Merges `next` (the later instant) into `into`, per-column type-aware.
  static void merge_row(Row& into, const Row& next);
  void push_row(const Row& row);
  void halve();

  std::vector<std::vector<double>> columns_;  // [kNumColumns][num_rows_]
  std::size_t num_rows_ = 0;
  std::uint64_t periods_ = 0;
  std::size_t stride_ = 1;
  // Accumulator for the current stride (valid when pending_count_ > 0).
  Row pending_;
  std::size_t pending_count_ = 0;
  double last_sample_time_ = 0.0;
  bool have_sample_ = false;
  // Rolling SLA window: violation flags of the newest kSlaWindow periods.
  std::deque<bool> rolling_;
  std::size_t rolling_hits_ = 0;
};

}  // namespace gc
