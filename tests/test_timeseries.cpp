// obs/timeseries.h — columnar append, type-aware decimation (delta sums
// preserved, memory bounded), same-instant tick folding, the rolling SLA
// window, and the CSV/JSON exports.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gc {
namespace {

using Col = TimeSeriesRecorder::Col;

TimeSeriesSample sample_at(double t) {
  TimeSeriesSample s;
  s.time = t;
  s.serving = 8;
  s.power_w = 100.0;
  return s;
}

// Sum of one column over the full export (stored rows + pending stride).
double export_sum(const TimeSeriesRecorder& recorder, Col col) {
  const CsvTable table = recorder.to_csv_table();
  double total = 0.0;
  for (const auto& row : table.rows) total += row[col];
  return total;
}

constexpr std::size_t kMaxPoints = TimeSeriesRecorder::kMaxPoints;  // 16384

TEST(TimeSeries, AppendStoresOneRowPerPeriod) {
  TimeSeriesRecorder recorder;
  for (int i = 0; i < 10; ++i) {
    TimeSeriesSample s = sample_at(5.0 * i);
    s.observed_rate = 2.0 * i;
    recorder.append(s);
  }
  EXPECT_EQ(recorder.size(), 10u);
  EXPECT_EQ(recorder.periods(), 10u);
  EXPECT_EQ(recorder.stride(), 1u);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kTime, 0), 0.0);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kTime, 9), 45.0);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kObservedRate, 3), 6.0);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kServing, 0), 8.0);
  EXPECT_THROW((void)recorder.value(Col::kTime, 10), std::out_of_range);
}

TEST(TimeSeries, DecimationBoundsMemoryAndPreservesDeltaSums) {
  TimeSeriesRecorder recorder;
  std::uint64_t shed_total = 0, admitted_total = 0, completed_total = 0;
  const int periods = 3 * static_cast<int>(kMaxPoints) + 1000;
  for (int i = 0; i < periods; ++i) {
    TimeSeriesSample s = sample_at(5.0 * i);
    s.d_admitted = static_cast<std::uint64_t>(3 + (i % 5));
    s.d_shed = static_cast<std::uint64_t>(i % 3);
    s.window_completed = static_cast<std::uint64_t>(2 + (i % 4));
    s.d_ticks_missed = (i % 7 == 0) ? 1u : 0u;
    s.energy_j = 10.0 * i;  // cumulative, monotone
    admitted_total += s.d_admitted;
    shed_total += s.d_shed;
    completed_total += s.window_completed;
    recorder.append(s);
  }
  EXPECT_EQ(recorder.periods(), static_cast<std::uint64_t>(periods));
  EXPECT_LT(recorder.size(), kMaxPoints);
  EXPECT_GT(recorder.stride(), 1u);  // halved at least once
  // Type-aware merging: per-period deltas and window counts survive
  // decimation exactly; nothing was silently dropped.
  EXPECT_DOUBLE_EQ(export_sum(recorder, Col::kDAdmitted),
                   static_cast<double>(admitted_total));
  EXPECT_DOUBLE_EQ(export_sum(recorder, Col::kDShed),
                   static_cast<double>(shed_total));
  EXPECT_DOUBLE_EQ(export_sum(recorder, Col::kWinCompleted),
                   static_cast<double>(completed_total));
  EXPECT_DOUBLE_EQ(export_sum(recorder, Col::kDTicksMissed),
                   std::ceil(periods / 7.0));
  // kLast columns: each stored row represents its stride's latest instant,
  // so times strictly increase and the final row is the final period.
  const CsvTable table = recorder.to_csv_table();
  for (std::size_t row = 1; row < table.rows.size(); ++row) {
    EXPECT_LT(table.rows[row - 1][Col::kTime], table.rows[row][Col::kTime]);
    EXPECT_LE(table.rows[row - 1][Col::kEnergyJ], table.rows[row][Col::kEnergyJ]);
  }
  EXPECT_DOUBLE_EQ(table.rows.back()[Col::kTime], 5.0 * (periods - 1));
  EXPECT_DOUBLE_EQ(table.rows.back()[Col::kEnergyJ], 10.0 * (periods - 1));
}

TEST(TimeSeries, StrideDoublesOnEachHalving) {
  TimeSeriesRecorder recorder;
  std::size_t last_stride = recorder.stride();
  EXPECT_EQ(last_stride, 1u);
  for (std::size_t i = 0; i < 4 * kMaxPoints; ++i) {
    recorder.append(sample_at(1.0 * static_cast<double>(i)));
    const std::size_t stride = recorder.stride();
    EXPECT_TRUE(stride == last_stride || stride == 2 * last_stride) << "period " << i;
    // The first halving happens when the 16384th row is stored.
    if (i + 1 == kMaxPoints - 1) {
      EXPECT_EQ(stride, 1u);
      EXPECT_EQ(recorder.size(), kMaxPoints - 1);
    }
    if (i + 1 == kMaxPoints) {
      EXPECT_EQ(stride, 2u);
      EXPECT_EQ(recorder.size(), kMaxPoints / 2);
    }
    last_stride = stride;
  }
  EXPECT_EQ(last_stride, 8u);  // 4 budgets of periods, halved at 1x, 2x, 4x
}

TEST(TimeSeries, SameInstantTicksFoldIntoOnePeriod) {
  TimeSeriesRecorder recorder;
  TimeSeriesSample long_tick = sample_at(60.0);
  long_tick.long_tick = true;
  long_tick.window_completed = 10;
  long_tick.window_mean_response_s = 1.0;
  long_tick.d_shed = 2;
  long_tick.d_admitted = 8;
  recorder.append(long_tick);

  TimeSeriesSample short_tick = sample_at(60.0);  // same instant
  short_tick.window_completed = 30;
  short_tick.window_mean_response_s = 2.0;
  short_tick.d_shed = 1;
  short_tick.d_admitted = 9;
  short_tick.serving = 12;
  recorder.append(short_tick);

  EXPECT_EQ(recorder.periods(), 1u);  // folded, not a second period
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kLongTick, 0), 1.0);  // max: flag kept
  EXPECT_DOUBLE_EQ(recorder.value(Col::kServing, 0), 12.0);  // last
  EXPECT_DOUBLE_EQ(recorder.value(Col::kWinCompleted, 0), 40.0);  // sum
  // Count-weighted mean: (10 * 1.0 + 30 * 2.0) / 40.
  EXPECT_DOUBLE_EQ(recorder.value(Col::kWinMeanT, 0), 1.75);
  // Deltas add, and the derived shed fraction is recomputed from the sums.
  EXPECT_DOUBLE_EQ(recorder.value(Col::kDShed, 0), 3.0);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kDAdmitted, 0), 17.0);
  EXPECT_DOUBLE_EQ(recorder.value(Col::kShedFrac, 0), 3.0 / 20.0);

  // A later instant starts a fresh period again.
  recorder.append(sample_at(65.0));
  EXPECT_EQ(recorder.periods(), 2u);
}

TEST(TimeSeries, RollingViolationWindowSlides) {
  TimeSeriesRecorder recorder;
  // 60 violated periods fill the 60-period window; each clean period after
  // them pushes one violation out.
  const std::size_t window = TimeSeriesRecorder::kSlaWindow;
  ASSERT_EQ(window, 60u);
  for (std::size_t i = 0; i < 2 * window + 2; ++i) {
    TimeSeriesSample s = sample_at(5.0 * static_cast<double>(i));
    s.window_violated = i < window;
    recorder.append(s);
    const std::size_t held = std::min(i + 1, window);
    const std::size_t hits = i < 2 * window ? std::min(i + 1, 2 * window - 1 - i) : 0;
    const double expected = static_cast<double>(hits) / static_cast<double>(held);
    EXPECT_DOUBLE_EQ(recorder.rolling_violation(), expected) << "period " << i;
    EXPECT_DOUBLE_EQ(recorder.value(Col::kRollingViolFrac, i), expected);
  }
}

TEST(TimeSeries, ExportsIncludeThePendingPartialStride) {
  TimeSeriesRecorder recorder;
  // kMaxPoints stored -> halved to kMaxPoints / 2 rows of stride 2; one extra.
  for (std::size_t i = 0; i <= kMaxPoints; ++i) {
    TimeSeriesSample s = sample_at(1.0 * static_cast<double>(i));
    s.d_admitted = 1;
    recorder.append(s);
  }
  EXPECT_EQ(recorder.stride(), 2u);
  EXPECT_EQ(recorder.size(), kMaxPoints / 2);  // the last period is pending
  const CsvTable table = recorder.to_csv_table();
  EXPECT_EQ(table.rows.size(), kMaxPoints / 2 + 1);  // exports flush it
  EXPECT_DOUBLE_EQ(table.rows.back()[Col::kTime], static_cast<double>(kMaxPoints));
  EXPECT_DOUBLE_EQ(export_sum(recorder, Col::kDAdmitted),
                   static_cast<double>(kMaxPoints + 1));
}

TEST(TimeSeries, CsvHasTheSchemaHeaderAndEveryColumn) {
  TimeSeriesRecorder recorder;
  TimeSeriesSample s = sample_at(5.0);
  s.observed_rate = 42.5;
  recorder.append(s);

  const auto dir = std::filesystem::temp_directory_path() / "gc_ts_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "out.timeseries.csv";
  recorder.write_csv(path);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_TRUE(header.starts_with("t,long_tick,measured,observed_rate"));
  std::string row;
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_TRUE(row.starts_with("5,0,0,42.5"));
  std::filesystem::remove_all(dir);

  for (const std::string& name : TimeSeriesRecorder::column_names()) {
    EXPECT_NE(header.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(TimeSeriesRecorder::column_names().size(),
            static_cast<std::size_t>(Col::kNumColumns));
}

}  // namespace
}  // namespace gc
