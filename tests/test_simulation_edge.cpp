// Edge cases of the simulation loop: empty workloads, controllers that do
// nothing, warmups longer than the run, and zero-transition-delay clusters.
#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "workload/workload.h"

namespace gc {
namespace {

class NullController final : public Controller {
 public:
  [[nodiscard]] double short_period_s() const override { return 10.0; }
  [[nodiscard]] double long_period_s() const override { return 100.0; }
  [[nodiscard]] ControlAction on_short_tick(const ControlContext&) override { return {}; }
  [[nodiscard]] ControlAction on_long_tick(const ControlContext&) override { return {}; }
  [[nodiscard]] const char* name() const override { return "null"; }
};

ClusterOptions two_server_options() {
  ClusterOptions options;
  options.num_servers = 2;
  options.initial_active = 2;
  return options;
}

TEST(SimEdge, EmptyWorkloadEndsImmediately) {
  // A trace with no arrivals: the run produces zero jobs and zero
  // post-warmup horizon, without hanging or dividing by zero.
  const Trace empty;
  Workload workload =
      Workload::trace_replay(empty, Distribution::exponential(10.0), 1);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_EQ(result.completed_jobs, 0u);
  EXPECT_DOUBLE_EQ(result.mean_response_s, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_power_w, 0.0);
}

TEST(SimEdge, SingleJobWorkload) {
  const Trace one({5.0});
  Workload workload = Workload::trace_replay(one, Distribution::deterministic(0.5), 1);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_NEAR(result.mean_response_s, 0.5, 1e-9);
}

TEST(SimEdge, NullControllerLeavesClusterAlone) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 500.0, 3);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_EQ(result.boots, 0u);
  EXPECT_EQ(result.shutdowns, 0u);
  EXPECT_NEAR(result.mean_serving, 2.0, 1e-9);
  EXPECT_NEAR(result.mean_speed, 1.0, 1e-9);
}

TEST(SimEdge, WarmupBeyondWorkloadYieldsNoMeasurements) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 100.0, 4);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  options.warmup_s = 1e6;  // never reached: run ends when jobs drain
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_EQ(result.completed_jobs, 0u);  // all completions were "in warmup"
  EXPECT_EQ(result.dropped_jobs, 0u);
  // No response statistic may leak from the warmup into the empty result.
  EXPECT_EQ(result.mean_response_s, 0.0);
  EXPECT_EQ(result.p95_response_s, 0.0);
  EXPECT_EQ(result.p99_response_s, 0.0);
  EXPECT_EQ(result.max_response_s, 0.0);
  EXPECT_EQ(result.job_violation_ratio, 0.0);
  EXPECT_EQ(result.response_hist.count(), 0u);
}

// The reported tails are the response histogram's quantiles, exactly, with
// and without a warmup (the histogram then covers only the measured part).
TEST(SimEdge, TailsAreTheResponseHistogramQuantiles) {
  for (const double warmup : {0.0, 100.0}) {
    Workload workload = Workload::poisson_exponential(15.0, 10.0, 500.0, 6);
    NullController controller;
    SimulationOptions options;
    options.t_ref_s = 1.0;
    options.warmup_s = warmup;
    const SimResult result =
        run_simulation(workload, two_server_options(), controller, options);
    ASSERT_GT(result.completed_jobs, 1000u) << "warmup " << warmup;
    EXPECT_EQ(result.response_hist.count(), result.completed_jobs) << "warmup " << warmup;
    EXPECT_EQ(result.p95_response_s, result.response_hist.quantile(0.95))
        << "warmup " << warmup;
    EXPECT_EQ(result.p99_response_s, result.response_hist.quantile(0.99))
        << "warmup " << warmup;
    EXPECT_LT(result.p95_response_s, result.p99_response_s) << "warmup " << warmup;
  }
}

TEST(SimEdge, ZeroTransitionDelaysWork) {
  ClusterOptions options = two_server_options();
  options.num_servers = 4;
  options.initial_active = 4;
  options.transition.boot_delay_s = 0.0;
  options.transition.shutdown_delay_s = 0.0;
  Workload workload = Workload::poisson_exponential(10.0, 10.0, 500.0, 5);

  class FlipFlop final : public Controller {
   public:
    [[nodiscard]] double short_period_s() const override { return 5.0; }
    [[nodiscard]] double long_period_s() const override { return 10.0; }
    [[nodiscard]] ControlAction on_short_tick(const ControlContext&) override {
      return {};
    }
    [[nodiscard]] ControlAction on_long_tick(const ControlContext&) override {
      ControlAction action;
      action.active_target = (flip_ = !flip_) ? 2u : 4u;
      return action;
    }

   private:
    bool flip_ = false;

   public:
    [[nodiscard]] const char* name() const override { return "flipflop"; }
  };
  FlipFlop controller;
  SimulationOptions sim;
  sim.t_ref_s = 1.0;
  const SimResult result = run_simulation(workload, options, controller, sim);
  EXPECT_GT(result.completed_jobs, 4000u);
  EXPECT_GT(result.boots, 10u);
  EXPECT_EQ(result.dropped_jobs, 0u);
}

TEST(SimEdge, RecordIntervalLargerThanRunYieldsNoTimeline) {
  Workload workload = Workload::poisson_exponential(5.0, 10.0, 50.0, 6);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  options.record_interval_s = 1e6;
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_TRUE(result.timeline.empty());
}

TEST(SimEdge, HighSpeedJobSmallerThanFloatNoise) {
  // Tiny jobs must not trip the completion DCHECK or produce negative
  // responses.
  const Trace trace({1.0, 1.0, 1.0});
  Workload workload =
      Workload::trace_replay(trace, Distribution::deterministic(1e-9), 1);
  NullController controller;
  SimulationOptions options;
  options.t_ref_s = 1.0;
  const SimResult result =
      run_simulation(workload, two_server_options(), controller, options);
  EXPECT_EQ(result.completed_jobs, 3u);
  EXPECT_GE(result.mean_response_s, 0.0);
}

}  // namespace
}  // namespace gc
