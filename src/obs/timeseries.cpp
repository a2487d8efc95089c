#include "obs/timeseries.h"

#include <stdexcept>

namespace gc {

namespace {

// Merge disposition per column when folding two adjacent instants (or two
// adjacent stored rows during decimation) into one.  `into` is the earlier
// instant, `next` the later.
enum class MergeKind {
  kLast,      // instantaneous/state: keep the later value
  kMax,       // flags and tail quantiles: conservative envelope
  kSum,       // per-period deltas and window counts
  kDerived,   // recomputed from other columns after they merged
  kWeighted,  // count-weighted window average (handled before kSum columns)
};

MergeKind merge_kind(std::size_t col) {
  using Col = TimeSeriesRecorder::Col;
  switch (col) {
    case Col::kLongTick:
    case Col::kMeasured:
    case Col::kSafeMode:
    case Col::kInfeasible:
    case Col::kWinP95T:
    case Col::kWinP99T:
      return MergeKind::kMax;
    case Col::kWinCompleted:
    case Col::kDAdmitted:
    case Col::kDShed:
    case Col::kDTelemetryDropped:
    case Col::kDCommandsDropped:
    case Col::kDAcksDropped:
    case Col::kDCmdRetries:
    case Col::kDCmdDuplicates:
    case Col::kDTicksMissed:
    case Col::kDBoots:
    case Col::kDShutdowns:
      return MergeKind::kSum;
    case Col::kWinMeanT:
    case Col::kWinViolFrac:
      return MergeKind::kWeighted;
    case Col::kShedFrac:
      return MergeKind::kDerived;
    default:
      return MergeKind::kLast;
  }
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder() {
  columns_.assign(kNumColumns, {});
  pending_.assign(kNumColumns, 0.0);
}

const std::vector<std::string>& TimeSeriesRecorder::column_names() {
  static const std::vector<std::string> names = {
      "t",
      "long_tick",
      "measured",
      "observed_rate",
      "local_rate",
      "predicted_rate",
      "planning_rate",
      "target_m",
      "serving",
      "committed",
      "powered",
      "available",
      "speed",
      "power_w",
      "energy_j",
      "queue_depth",
      "win_completed",
      "win_mean_t_s",
      "win_p95_t_s",
      "win_p99_t_s",
      "win_viol_frac",
      "rolling_viol_frac",
      "d_admitted",
      "d_shed",
      "shed_frac",
      "admit_p",
      "obs_age_s",
      "safe_mode",
      "infeasible",
      "d_telemetry_dropped",
      "d_commands_dropped",
      "d_acks_dropped",
      "d_command_retries",
      "d_command_duplicates",
      "d_ticks_missed",
      "d_boots",
      "d_shutdowns",
      "solved_spares",
      "availability_est",
      "wear_frac",
  };
  return names;
}

TimeSeriesRecorder::Row TimeSeriesRecorder::to_row(
    const TimeSeriesSample& sample) {
  Row row(kNumColumns, 0.0);
  row[kTime] = sample.time;
  row[kLongTick] = sample.long_tick ? 1.0 : 0.0;
  row[kMeasured] = sample.measured ? 1.0 : 0.0;
  row[kObservedRate] = sample.observed_rate;
  row[kLocalRate] = sample.local_rate;
  row[kPredictedRate] = sample.predicted_rate;
  row[kPlanningRate] = sample.planning_rate;
  row[kTargetM] = sample.target_m;
  row[kServing] = static_cast<double>(sample.serving);
  row[kCommitted] = static_cast<double>(sample.committed);
  row[kPowered] = static_cast<double>(sample.powered);
  row[kAvailable] = static_cast<double>(sample.available);
  row[kSpeed] = sample.speed;
  row[kPowerW] = sample.power_w;
  row[kEnergyJ] = sample.energy_j;
  row[kQueueDepth] = static_cast<double>(sample.queue_depth);
  row[kWinCompleted] = static_cast<double>(sample.window_completed);
  row[kWinMeanT] = sample.window_mean_response_s;
  row[kWinP95T] = sample.window_p95_response_s;
  row[kWinP99T] = sample.window_p99_response_s;
  row[kWinViolFrac] = sample.window_violation_fraction;
  row[kRollingViolFrac] = 0.0;  // filled at append time
  row[kDAdmitted] = static_cast<double>(sample.d_admitted);
  row[kDShed] = static_cast<double>(sample.d_shed);
  const double offered =
      static_cast<double>(sample.d_admitted + sample.d_shed);
  row[kShedFrac] =
      offered > 0.0 ? static_cast<double>(sample.d_shed) / offered : 0.0;
  row[kAdmitP] = sample.admit_probability;
  row[kObsAgeS] = sample.obs_age_s;
  row[kSafeMode] = sample.safe_mode ? 1.0 : 0.0;
  row[kInfeasible] = sample.infeasible ? 1.0 : 0.0;
  row[kDTelemetryDropped] = static_cast<double>(sample.d_telemetry_dropped);
  row[kDCommandsDropped] = static_cast<double>(sample.d_commands_dropped);
  row[kDAcksDropped] = static_cast<double>(sample.d_acks_dropped);
  row[kDCmdRetries] = static_cast<double>(sample.d_command_retries);
  row[kDCmdDuplicates] = static_cast<double>(sample.d_command_duplicates);
  row[kDTicksMissed] = static_cast<double>(sample.d_ticks_missed);
  row[kDBoots] = static_cast<double>(sample.d_boots);
  row[kDShutdowns] = static_cast<double>(sample.d_shutdowns);
  row[kSolvedSpares] = sample.solved_spares;
  row[kAvailEst] = sample.availability_est;
  row[kWearFrac] = sample.wear_fraction;
  return row;
}

void TimeSeriesRecorder::merge_row(Row& into, const Row& next) {
  // Count-weighted window stats need the pre-merge counts, so they go first.
  const double c1 = into[kWinCompleted];
  const double c2 = next[kWinCompleted];
  if (c1 + c2 > 0.0) {
    into[kWinMeanT] =
        (c1 * into[kWinMeanT] + c2 * next[kWinMeanT]) / (c1 + c2);
    into[kWinViolFrac] =
        (c1 * into[kWinViolFrac] + c2 * next[kWinViolFrac]) / (c1 + c2);
  }
  for (std::size_t col = 0; col < kNumColumns; ++col) {
    switch (merge_kind(col)) {
      case MergeKind::kLast:
        into[col] = next[col];
        break;
      case MergeKind::kMax:
        if (next[col] > into[col]) into[col] = next[col];
        break;
      case MergeKind::kSum:
        into[col] += next[col];
        break;
      case MergeKind::kWeighted:
      case MergeKind::kDerived:
        break;  // handled outside the loop
    }
  }
  const double offered = into[kDAdmitted] + into[kDShed];
  into[kShedFrac] = offered > 0.0 ? into[kDShed] / offered : 0.0;
}

void TimeSeriesRecorder::append(const TimeSeriesSample& sample) {
  Row row = to_row(sample);
  if (have_sample_ && sample.time == last_sample_time_) {
    // Second tick at the same instant (a long tick is immediately followed
    // by its short tick): fold into the existing period instead of counting
    // a new one.
    row[kRollingViolFrac] = rolling_violation();
    if (pending_count_ > 0) {
      merge_row(pending_, row);
    } else {
      Row last(kNumColumns);
      for (std::size_t col = 0; col < kNumColumns; ++col) {
        last[col] = columns_[col][num_rows_ - 1];
      }
      merge_row(last, row);
      for (std::size_t col = 0; col < kNumColumns; ++col) {
        columns_[col][num_rows_ - 1] = last[col];
      }
    }
    return;
  }
  ++periods_;
  have_sample_ = true;
  last_sample_time_ = sample.time;
  rolling_.push_back(sample.window_violated);
  if (sample.window_violated) ++rolling_hits_;
  if (rolling_.size() > kSlaWindow) {
    if (rolling_.front()) --rolling_hits_;
    rolling_.pop_front();
  }
  row[kRollingViolFrac] = rolling_violation();
  if (pending_count_ == 0) {
    pending_ = row;
    pending_count_ = 1;
  } else {
    merge_row(pending_, row);
    ++pending_count_;
  }
  if (pending_count_ >= stride_) {
    push_row(pending_);
    pending_count_ = 0;
  }
}

void TimeSeriesRecorder::push_row(const Row& row) {
  for (std::size_t col = 0; col < kNumColumns; ++col) {
    columns_[col].push_back(row[col]);
  }
  ++num_rows_;
  if (num_rows_ >= kMaxPoints) halve();
}

void TimeSeriesRecorder::halve() {
  const std::size_t pairs = num_rows_ / 2;
  Row a(kNumColumns);
  Row b(kNumColumns);
  for (std::size_t i = 0; i < pairs; ++i) {
    for (std::size_t col = 0; col < kNumColumns; ++col) {
      a[col] = columns_[col][2 * i];
      b[col] = columns_[col][2 * i + 1];
    }
    merge_row(a, b);
    for (std::size_t col = 0; col < kNumColumns; ++col) {
      columns_[col][i] = a[col];
    }
  }
  for (auto& column : columns_) column.resize(pairs);
  num_rows_ = pairs;
  stride_ *= 2;
}

double TimeSeriesRecorder::rolling_violation() const noexcept {
  if (rolling_.empty()) return 0.0;
  return static_cast<double>(rolling_hits_) /
         static_cast<double>(rolling_.size());
}

double TimeSeriesRecorder::value(Col col, std::size_t row) const {
  if (col >= kNumColumns || row >= num_rows_) {
    throw std::out_of_range("TimeSeriesRecorder::value: out of range");
  }
  return columns_[col][row];
}

CsvTable TimeSeriesRecorder::to_csv_table() const {
  CsvTable table;
  table.header = column_names();
  table.rows.reserve(num_rows_ + (pending_count_ > 0 ? 1 : 0));
  for (std::size_t row = 0; row < num_rows_; ++row) {
    std::vector<double> cells(kNumColumns);
    for (std::size_t col = 0; col < kNumColumns; ++col) {
      cells[col] = columns_[col][row];
    }
    table.rows.push_back(std::move(cells));
  }
  if (pending_count_ > 0) table.rows.push_back(pending_);
  return table;
}

void TimeSeriesRecorder::write_csv(const std::filesystem::path& path) const {
  write_csv_file(path, to_csv_table());
}

}  // namespace gc
