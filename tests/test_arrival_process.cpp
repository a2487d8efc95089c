#include "workload/arrival_process.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exp/scenario.h"
#include "workload/trace.h"

namespace gc {
namespace {

std::vector<double> drain(ArrivalProcess& process) {
  std::vector<double> ts;
  while (const auto t = process.next()) ts.push_back(*t);
  return ts;
}

TEST(Poisson, CountMatchesRateTimesHorizon) {
  PoissonProcess process(50.0, 1000.0, Rng(1));
  const auto ts = drain(process);
  // Poisson(50000): sd ~ 224; allow 5 sigma.
  EXPECT_NEAR(static_cast<double>(ts.size()), 50000.0, 5.0 * 224.0);
}

TEST(Poisson, StrictlyIncreasingWithinHorizon) {
  PoissonProcess process(10.0, 100.0, Rng(2));
  const auto ts = drain(process);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GT(ts[i], ts[i - 1]);
  EXPECT_LE(ts.back(), 100.0);
}

TEST(Poisson, InterarrivalsAreExponential) {
  PoissonProcess process(4.0, 50000.0, Rng(3));
  const auto ts = drain(process);
  double sum = 0.0, sumsq = 0.0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const double gap = ts[i] - ts[i - 1];
    sum += gap;
    sumsq += gap * gap;
  }
  const double n = static_cast<double>(ts.size() - 1);
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.25, 0.005);
  EXPECT_NEAR(var, 0.0625, 0.005);  // exp: var = mean^2
}

TEST(Poisson, ResetReproducesSequence) {
  PoissonProcess process(10.0, 100.0, Rng(4));
  const auto first = drain(process);
  process.reset();
  const auto second = drain(process);
  EXPECT_EQ(first, second);
}

TEST(Poisson, RejectsBadParams) {
  EXPECT_THROW(PoissonProcess(0.0, 10.0, Rng(1)), std::invalid_argument);
  EXPECT_THROW(PoissonProcess(1.0, 0.0, Rng(1)), std::invalid_argument);
}

TEST(Nhpp, ConstantProfileMatchesPoissonStatistics) {
  auto profile = std::make_shared<ConstantRate>(20.0);
  NhppProcess process(profile, 5000.0, Rng(5));
  const auto ts = drain(process);
  EXPECT_NEAR(static_cast<double>(ts.size()), 100000.0, 5.0 * 316.0);
}

TEST(Nhpp, CountTracksProfileIntegral) {
  // Sinusoid: integral over a full period is base * period.
  auto profile = std::make_shared<SinusoidalRate>(30.0, 20.0, 1000.0);
  NhppProcess process(profile, 10000.0, Rng(6));
  const auto ts = drain(process);
  EXPECT_NEAR(static_cast<double>(ts.size()), 300000.0, 5.0 * 548.0);
}

TEST(Nhpp, LocalIntensityFollowsProfile) {
  // Count arrivals in the high vs low half of a square-ish profile.
  auto profile = std::make_shared<PiecewiseLinearRate>(
      std::vector<PiecewiseLinearRate::Knot>{{0.0, 100.0}, {999.9, 100.0},
                                             {1000.0, 10.0}, {2000.0, 10.0}});
  NhppProcess process(profile, 2000.0, Rng(7), /*majorant_window_s=*/100.0);
  std::size_t high = 0, low = 0;
  while (const auto t = process.next()) {
    (*t < 1000.0 ? high : low) += 1;
  }
  EXPECT_NEAR(static_cast<double>(high), 100000.0, 5.0 * 316.0);
  EXPECT_NEAR(static_cast<double>(low), 10000.0, 5.0 * 100.0);
}

TEST(Nhpp, ZeroRateRegionsProduceNoArrivals) {
  auto profile = std::make_shared<PiecewiseLinearRate>(
      std::vector<PiecewiseLinearRate::Knot>{{0.0, 0.0}, {100.0, 0.0}, {100.1, 50.0},
                                             {200.0, 50.0}});
  NhppProcess process(profile, 200.0, Rng(8), 10.0);
  while (const auto t = process.next()) {
    EXPECT_GT(*t, 99.9);
  }
}

// A reset, also one mid-stream, must leave no state of the interrupted
// window behind: after it the process draws the same stream, at the same
// cost, as a fresh one.  The WC98 profile's majorant differs from window
// to window, so a majorant carried over would change the stream.
TEST(Nhpp, ResetReproduces) {
  auto profile = std::make_shared<SinusoidalRate>(10.0, 5.0, 100.0);
  NhppProcess process(profile, 500.0, Rng(9));
  const auto first = drain(process);
  process.reset();
  EXPECT_EQ(first, drain(process));

  const auto counting = std::make_shared<CountingRate>(
      make_wc98_like_profile(50.0, 1.0, 5, /*day_s=*/2400.0));
  NhppProcess wc98(counting, 2400.0, Rng(9));
  const auto day = drain(wc98);
  const std::uint64_t fresh_calls = counting->max_rate_calls();
  EXPECT_EQ(fresh_calls, 4u);  // 2400 s in 600 s windows
  for (const std::size_t stop : {day.size() / 20, day.size() / 2}) {
    wc98.reset();
    for (std::size_t i = 0; i < stop; ++i) ASSERT_EQ(wc98.next(), day[i]);
    wc98.reset();
    const std::uint64_t before = counting->max_rate_calls();
    EXPECT_EQ(day, drain(wc98)) << "reset after " << stop << " arrivals";
    EXPECT_EQ(counting->max_rate_calls() - before, fresh_calls);
  }
}

// 0.1 s is no exact binary fraction: (k·0.1 + 0.1) / 0.1 often floors back
// to k, so the process must step past such a window edge by itself.
TEST(Nhpp, FractionalWindowTerminates) {
  auto profile = std::make_shared<ConstantRate>(5.0);
  NhppProcess process(profile, 50.0, Rng(3), /*majorant_window_s=*/0.1);
  const auto ts = drain(process);
  // Poisson(250): sd ~ 16; allow 5 sigma.
  EXPECT_NEAR(static_cast<double>(ts.size()), 250.0, 5.0 * 16.0);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GT(ts[i], ts[i - 1]);
  EXPECT_LE(ts.back(), 50.0);
}

// Thinning evaluates the majorant once per window it enters and the rate
// once per candidate.  fig8's day (Trace::from_profile with its 600 s
// windows) spans 7200 s, so 12 windows; the rate() count is the number of
// candidates, which the majorants fix.
TEST(Nhpp, MajorantOncePerWindowOnFig8Day) {
  const auto counting = std::make_shared<CountingRate>(make_wc98_like_profile(
      0.7 * bench_cluster_config().max_feasible_arrival_rate(), 3.0, 13, 2400.0));
  const Trace trace = Trace::from_profile(*counting, 7200.0, 13);
  EXPECT_EQ(trace.size(), 287310u);
  EXPECT_EQ(counting->max_rate_calls(), 12u);
  EXPECT_EQ(counting->rate_calls(), 498712u);
}

TEST(Nhpp, MajorantOncePerWindowOnSinusoid) {
  const auto counting =
      std::make_shared<CountingRate>(std::make_shared<SinusoidalRate>(30.0, 20.0, 1000.0));
  const double horizon = 2500.0, window = 300.0;
  NhppProcess process(counting, horizon, Rng(6), window);
  EXPECT_FALSE(drain(process).empty());
  EXPECT_EQ(counting->max_rate_calls(), static_cast<std::uint64_t>(std::ceil(horizon / window)));
  EXPECT_EQ(counting->rate_calls(), 105740u);
}

TEST(Mmpp, MeanRateFormula) {
  MmppProcess::Params params;
  params.rate0 = 10.0;
  params.rate1 = 100.0;
  params.switch_rate0 = 0.01;
  params.switch_rate1 = 0.03;
  MmppProcess process(params, 1.0, Rng(10));
  // pi0 = 0.03/0.04 = 0.75 -> mean = 0.75*10 + 0.25*100 = 32.5
  EXPECT_NEAR(process.mean_rate(), 32.5, 1e-12);
}

TEST(Mmpp, EmpiricalRateMatchesMeanRate) {
  MmppProcess::Params params;
  MmppProcess process(params, 100000.0, Rng(11));
  const auto ts = drain(process);
  const double empirical = static_cast<double>(ts.size()) / 100000.0;
  EXPECT_NEAR(empirical, process.mean_rate(), process.mean_rate() * 0.05);
}

TEST(Mmpp, ResetReproduces) {
  MmppProcess process({}, 1000.0, Rng(12));
  const auto first = drain(process);
  process.reset();
  EXPECT_EQ(first, drain(process));
}

TEST(DeterministicArrivals, FixedSpacing) {
  DeterministicProcess process(2.0, 10.0, 1.0);
  const auto ts = drain(process);
  ASSERT_EQ(ts.size(), 5u);  // 1,3,5,7,9
  EXPECT_DOUBLE_EQ(ts[0], 1.0);
  EXPECT_DOUBLE_EQ(ts[4], 9.0);
}

TEST(DeterministicArrivals, ResetWorks) {
  DeterministicProcess process(1.0, 3.0);
  const auto first = drain(process);
  EXPECT_EQ(first.size(), 4u);  // 0, 1, 2, 3
  process.reset();
  EXPECT_EQ(drain(process), first);
}

TEST(TraceArrivals, ReplaysInOrder) {
  TraceProcess process({0.5, 1.0, 1.0, 2.5});
  const auto ts = drain(process);
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts[2], 1.0);
}

TEST(TraceArrivals, RejectsUnsorted) {
  EXPECT_THROW(TraceProcess({1.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(TraceProcess({-1.0}), std::invalid_argument);
}

TEST(TraceArrivals, EmptyTraceIsExhausted) {
  TraceProcess process({});
  EXPECT_FALSE(process.next().has_value());
}

}  // namespace
}  // namespace gc
