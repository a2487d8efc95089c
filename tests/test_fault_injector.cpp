// Fault-injection unit tests: scripted crashes, boot hangs, repair cycles
// and the cluster's orphan-job handling, driven through a miniature event
// loop that mirrors the simulation's routing of fault events.
#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sim/cluster.h"

namespace gc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ClusterOptions cluster_options(unsigned servers, unsigned active) {
  ClusterOptions options;
  options.num_servers = servers;
  options.initial_active = active;
  options.transition.boot_delay_s = 2.0;
  options.transition.shutdown_delay_s = 0.5;
  return options;
}

Job make_job(std::uint64_t id, double now, double size) {
  Job job;
  job.id = id;
  job.arrival_time = now;
  job.size = size;
  job.remaining = size;
  return job;
}

// Pops events up to `horizon` and routes them the way simulation.cpp does.
// An event past the horizon is put back (with a fresh id — fine for these
// tests, which never resume the run across a put-back boundary in a way
// that depends on the old id).
struct FaultHarness {
  EventQueue queue;
  Cluster cluster;
  FaultInjector injector;
  double now = 0.0;
  std::uint64_t completed = 0;
  // Every kServerFail that actually crashed a server, in firing order.
  std::vector<std::pair<double, std::uint32_t>> crash_log;

  FaultHarness(const ClusterOptions& options, const FaultOptions& faults,
               std::uint64_t seed)
      : cluster(options, &queue), injector(faults, options.num_servers, seed) {
    cluster.set_fault_injector(&injector);
    injector.arm(queue);
  }

  void run_until(double horizon) {
    while (auto event = queue.pop()) {
      if (event->time > horizon) {
        queue.schedule(event->time, event->type, event->subject);
        break;
      }
      now = event->time;
      switch (event->type) {
        case EventType::kDeparture:
          (void)cluster.handle_departure(now, event->subject);
          ++completed;
          break;
        case EventType::kBootComplete:
          cluster.handle_boot_complete(now, event->subject);
          break;
        case EventType::kShutdownComplete:
          cluster.handle_shutdown_complete(now, event->subject);
          break;
        case EventType::kServerFail:
          if (injector.on_fail_event(now, event->subject, cluster, queue)) {
            crash_log.emplace_back(now, event->subject);
          }
          break;
        case EventType::kServerRepair:
          injector.on_repair_event(now, event->subject, cluster, queue);
          break;
        case EventType::kBootTimeout:
          injector.on_boot_timeout(now, event->subject, cluster, queue);
          break;
        default:
          break;
      }
    }
    now = horizon;
  }
};

TEST(FaultOptions, ValidateRejectsBadParameters) {
  FaultOptions ok;
  ok.mtbf_s = 100.0;
  EXPECT_NO_THROW(ok.validate());

  FaultOptions bad = ok;
  bad.mtbf_s = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.mttr_s = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.boot_hang_prob = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.boot_timeout_s = -2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.script.push_back({-1.0, 0});
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.script.push_back({5.0, 0, 0.0});
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FaultOptions, EnabledOnlyWithAFaultSource) {
  FaultOptions options;
  EXPECT_FALSE(options.enabled());
  options.mtbf_s = 10.0;
  EXPECT_TRUE(options.enabled());
  options = {};
  options.boot_hang_prob = 0.1;
  EXPECT_TRUE(options.enabled());
  options = {};
  options.script.push_back({1.0, 0});
  EXPECT_TRUE(options.enabled());
}

TEST(FaultInjector, RejectsScriptBeyondFleet) {
  FaultOptions faults;
  faults.script.push_back({1.0, 7});
  EXPECT_THROW(FaultInjector(faults, 4, 1), std::invalid_argument);
}

TEST(FaultInjector, ScriptedCrashThenFixedRepair) {
  FaultOptions faults;
  faults.script.push_back({10.0, 0, 5.0});
  FaultHarness h(cluster_options(4, 2), faults, 1);

  h.run_until(9.0);
  EXPECT_EQ(h.cluster.failed_count(), 0u);
  EXPECT_EQ(h.cluster.server(0).state(), PowerState::kOn);

  h.run_until(10.5);
  EXPECT_EQ(h.cluster.totals().failures, 1u);
  EXPECT_EQ(h.cluster.failed_count(), 1u);
  EXPECT_EQ(h.cluster.available_count(), 3u);
  EXPECT_EQ(h.cluster.server(0).state(), PowerState::kFailed);

  h.run_until(16.0);
  EXPECT_EQ(h.cluster.totals().repairs, 1u);
  EXPECT_EQ(h.cluster.failed_count(), 0u);
  EXPECT_EQ(h.cluster.server(0).state(), PowerState::kOff);
}

TEST(FaultInjector, ScriptedFaultOnOffServerIsDropped) {
  // Server 3 is OFF (only 0 and 1 are active): the crash is a no-op.
  FaultOptions faults;
  faults.script.push_back({10.0, 3, 5.0});
  FaultHarness h(cluster_options(4, 2), faults, 1);
  h.run_until(20.0);
  EXPECT_EQ(h.cluster.totals().failures, 0u);
  EXPECT_EQ(h.cluster.failed_count(), 0u);
  EXPECT_EQ(h.cluster.server(3).state(), PowerState::kOff);
}

TEST(FaultInjector, CrashDuringBootFails) {
  // Server 1 boots at t=0 (boot delay 2); the scripted crash at t=1 lands
  // mid-boot, cancels the pending kBootComplete and the repair returns the
  // server to OFF.
  FaultOptions faults;
  faults.script.push_back({1.0, 1, 3.0});
  FaultHarness h(cluster_options(2, 1), faults, 1);
  h.cluster.set_active_target(0.0, 2);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kBooting);
  h.run_until(1.5);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kFailed);
  h.run_until(10.0);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kOff);
  EXPECT_EQ(h.cluster.totals().failures, 1u);
  EXPECT_EQ(h.cluster.totals().repairs, 1u);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 0u);
}

TEST(FaultInjector, OrphansRedispatchToSurvivors) {
  FaultOptions faults;
  faults.script.push_back({1.0, 0, kInf});
  FaultHarness h(cluster_options(2, 2), faults, 1);
  // Six long jobs at t=0; JSQ splits them 3/3.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(h.cluster.route_job(0.0, make_job(i, 0.0, 100.0)));
  }
  h.run_until(2.0);
  EXPECT_EQ(h.cluster.totals().failures, 1u);
  EXPECT_EQ(h.cluster.totals().redispatched, 3u);
  EXPECT_EQ(h.cluster.totals().lost, 0u);
  EXPECT_EQ(h.cluster.jobs_in_system(), 6u);  // conservation across the crash
  EXPECT_EQ(h.completed, 0u);
}

TEST(FaultInjector, AllServersDownLosesJobs) {
  FaultOptions faults;
  faults.script.push_back({1.0, 0, kInf});
  faults.script.push_back({2.0, 1, kInf});
  FaultHarness h(cluster_options(2, 2), faults, 1);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(h.cluster.route_job(0.0, make_job(i, 0.0, 100.0)));
  }
  h.run_until(3.0);
  EXPECT_EQ(h.cluster.totals().failures, 2u);
  EXPECT_EQ(h.cluster.serving_count(), 0u);
  EXPECT_EQ(h.cluster.failed_count(), 2u);
  // The first crash moves its jobs to the survivor; the second has nowhere
  // left and destroys all four.
  EXPECT_EQ(h.cluster.totals().redispatched, 2u);
  EXPECT_EQ(h.cluster.totals().lost, 4u);
  EXPECT_EQ(h.cluster.jobs_in_system(), 0u);
}

TEST(FaultInjector, BootHangTimesOutAndRepairs) {
  FaultOptions faults;
  faults.boot_hang_prob = 1.0;
  faults.boot_timeout_s = 5.0;
  faults.mttr_s = 50.0;
  FaultHarness h(cluster_options(2, 1), faults, 3);
  h.cluster.set_active_target(0.0, 2);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kBooting);
  h.run_until(4.9);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 0u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kBooting);
  h.run_until(5.5);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 1u);
  EXPECT_EQ(h.cluster.totals().failures, 1u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kFailed);
  h.run_until(1e7);  // the exponential repair fires eventually
  EXPECT_EQ(h.cluster.totals().repairs, 1u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kOff);
}

TEST(FaultInjector, DefaultBootTimeoutIsThreeBootDelays) {
  FaultOptions faults;
  faults.boot_hang_prob = 1.0;  // boot_timeout_s = 0 -> 3 * boot_delay
  FaultHarness h(cluster_options(2, 1), faults, 3);
  h.cluster.set_active_target(0.0, 2);
  h.run_until(5.9);  // 3 * 2.0 = 6.0
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 0u);
  h.run_until(6.1);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 1u);
}

TEST(FaultInjector, BackgroundProcessCrashesAndRepairs) {
  FaultOptions faults;
  faults.mtbf_s = 50.0;
  faults.mttr_s = 10.0;
  FaultHarness h(cluster_options(4, 4), faults, 7);
  h.run_until(2000.0);
  EXPECT_GT(h.cluster.totals().failures, 0u);
  EXPECT_GT(h.cluster.totals().repairs, 0u);
  EXPECT_LE(h.cluster.totals().repairs, h.cluster.totals().failures);
  // Every crash set FAILED and every repair cleared one.
  const FleetTotals& totals = h.cluster.totals();
  EXPECT_EQ(h.cluster.failed_count(),
            static_cast<unsigned>(totals.failures - totals.repairs));
  // State partition still holds.
  unsigned counted = 0;
  for (std::uint32_t i = 0; i < h.cluster.num_servers(); ++i) {
    switch (h.cluster.server(i).state()) {
      case PowerState::kOn:
      case PowerState::kBooting:
      case PowerState::kShuttingDown:
      case PowerState::kOff:
      case PowerState::kFailed:
        ++counted;
        break;
    }
  }
  EXPECT_EQ(counted, h.cluster.num_servers());
}

TEST(FaultInjector, EnergyStaysMonotoneUnderCrashes) {
  FaultOptions faults;
  faults.mtbf_s = 30.0;
  faults.mttr_s = 5.0;
  FaultHarness h(cluster_options(4, 4), faults, 11);
  double last_energy = 0.0;
  for (double t = 100.0; t <= 1000.0; t += 100.0) {
    h.run_until(t);
    h.cluster.flush_energy(t);
    const double energy = h.cluster.energy().total_j();
    EXPECT_TRUE(std::isfinite(energy));
    EXPECT_GE(energy, last_energy - 1e-9);
    last_energy = energy;
  }
  EXPECT_GT(last_energy, 0.0);
}

TEST(FaultInjector, DeterministicInSeed) {
  FaultOptions faults;
  faults.mtbf_s = 40.0;
  faults.mttr_s = 8.0;
  FaultHarness a(cluster_options(8, 8), faults, 21);
  FaultHarness b(cluster_options(8, 8), faults, 21);
  a.run_until(1500.0);
  b.run_until(1500.0);
  EXPECT_EQ(a.crash_log, b.crash_log);
  EXPECT_EQ(a.cluster.totals().failures, b.cluster.totals().failures);
  EXPECT_EQ(a.cluster.totals().repairs, b.cluster.totals().repairs);

  FaultHarness c(cluster_options(8, 8), faults, 22);
  c.run_until(1500.0);
  ASSERT_FALSE(a.crash_log.empty());
  EXPECT_NE(a.crash_log, c.crash_log);  // continuous crash times: collisions
                                        // across seeds are measure-zero
}

}  // namespace
}  // namespace gc
