// Fault-injection unit tests: scripted crashes, boot hangs, repair cycles
// and the cluster's orphan-job handling, driven through a miniature event
// loop that mirrors the simulation's routing of fault events.
#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
#include <limits>
#include <optional>
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
      : cluster(options, &queue),
        injector(faults, seed, options.num_servers) {
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
  EXPECT_THROW(FaultInjector(faults, 1, 4), std::invalid_argument);
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
  faults.mttr_s = 50.0;
  FaultHarness h(cluster_options(2, 1), faults, 3);
  h.cluster.set_active_target(0.0, 2);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kBooting);
  h.run_until(5.9);  // the timeout is 3 boot delays of 2.0 s
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 0u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kBooting);
  h.run_until(6.1);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 1u);
  EXPECT_EQ(h.cluster.totals().failures, 1u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kFailed);
  h.run_until(1e7);  // the exponential repair fires eventually
  EXPECT_EQ(h.cluster.totals().repairs, 1u);
  EXPECT_EQ(h.cluster.server(1).state(), PowerState::kOff);
}

TEST(FaultInjector, DefaultBootTimeoutIsThreeBootDelays) {
  FaultOptions faults;
  faults.boot_hang_prob = 1.0;
  FaultHarness h(cluster_options(2, 1), faults, 3);
  h.cluster.set_active_target(0.0, 2);
  const double timeout_s = kBootTimeoutBootDelays * 2.0;  // 3 * boot delay = 6.0
  h.run_until(timeout_s - 0.1);
  EXPECT_EQ(h.cluster.totals().boot_timeouts, 0u);
  h.run_until(timeout_s + 0.1);
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

// -- partition invariance ----------------------------------------------------
//
// A stub engine over one fleet slice whose servers never power down: a
// background or scripted fault crashes an up server, a repair reboots it at
// once, and each boot either completes after kStubBootDelayS or hangs.
// Every draw a server makes then depends on its own fault history only, so
// the whole fleet and any strided slicing of it must schedule the same
// events and draw the same boot hangs, server by server.
constexpr double kStubBootDelayS = 2.0;

struct FaultRecord {
  double time = 0.0;
  std::uint32_t server = 0;  // global index
  EventType type{};
  auto operator<=>(const FaultRecord&) const = default;
};

class StubSlice {
 public:
  StubSlice(const FaultOptions& faults, std::uint64_t seed, unsigned num_servers,
            std::uint32_t stride, std::uint32_t offset)
      : injector_(faults, seed, num_servers, stride, offset),
        stride_(stride),
        offset_(offset),
        state_((num_servers - offset + stride - 1) / stride, State::kUp) {
    injector_.arm(queue_);
  }

  // Pops every event up to `horizon`, appending what fired to `log` and
  // each boot's hang draw (0 = none) to `hangs[gi]`.
  void run_until(double horizon, std::vector<FaultRecord>& log,
                 std::vector<std::vector<double>>& hangs) {
    hangs_ = &hangs;
    while (auto event = queue_.pop()) {
      if (event->time > horizon) break;
      const double now = event->time;
      const std::uint32_t li = event->subject;
      log.push_back({now, global(li), event->type});
      switch (event->type) {
        case EventType::kServerFail:
          (void)injector_.on_fail_event(now, li, *this, queue_);
          break;
        case EventType::kServerRepair:
          injector_.on_repair_event(now, li, *this, queue_);
          break;
        case EventType::kBootTimeout:
          injector_.on_boot_timeout(now, li, *this, queue_);
          break;
        case EventType::kBootComplete: state_[li] = State::kUp; break;
        default: FAIL() << "unexpected event type";
      }
    }
  }

  // The engine interface FaultInjector drives.
  bool fail_server(double /*now*/, std::uint32_t li) {
    if (state_[li] != State::kUp) return false;  // booting or failed: no crash
    state_[li] = State::kFailed;
    return true;
  }
  void timeout_boot(double /*now*/, std::uint32_t li) { state_[li] = State::kFailed; }
  void repair_server(double now, std::uint32_t li) {
    state_[li] = State::kBooting;
    const std::optional<double> hang = injector_.sample_boot_hang(li, kStubBootDelayS);
    (*hangs_)[global(li)].push_back(hang.value_or(0.0));
    if (hang) {
      queue_.schedule(now + *hang, EventType::kBootTimeout, li);
    } else {
      queue_.schedule(now + kStubBootDelayS, EventType::kBootComplete, li);
    }
  }

 private:
  enum class State { kUp, kBooting, kFailed };

  [[nodiscard]] std::uint32_t global(std::uint32_t li) const {
    return li * stride_ + offset_;
  }

  EventQueue queue_;
  FaultInjector injector_;
  std::uint32_t stride_;
  std::uint32_t offset_;
  std::vector<State> state_;
  std::vector<std::vector<double>>* hangs_ = nullptr;
};

struct FaultHistory {
  std::vector<FaultRecord> log;  // sorted by (time, server, type)
  std::vector<std::vector<double>> hangs;
};

FaultHistory partitioned_history(const FaultOptions& faults, unsigned num_servers,
                                 std::uint32_t num_slices, double horizon) {
  FaultHistory history;
  history.hangs.resize(num_servers);
  for (std::uint32_t k = 0; k < num_slices; ++k) {
    StubSlice slice(faults, /*seed=*/77, num_servers, num_slices, k);
    slice.run_until(horizon, history.log, history.hangs);
  }
  std::sort(history.log.begin(), history.log.end());
  return history;
}

TEST(FaultInjector, FaultProcessDoesNotDependOnThePartition) {
  FaultOptions faults;
  faults.mtbf_s = 40.0;
  faults.mttr_s = 8.0;
  faults.boot_hang_prob = 0.3;
  faults.script = {{50.0, 5, 20.0}, {80.0, 17, kInf}, {80.0, 6, 5.0}};
  constexpr unsigned kServers = 24;
  constexpr double kHorizon = 2000.0;
  const FaultHistory whole = partitioned_history(faults, kServers, 1, kHorizon);
  // The run exercised every path: crashes, repairs, reboots and hung boots.
  unsigned fails = 0, repairs = 0, boots = 0, hangs = 0;
  for (const FaultRecord& r : whole.log) {
    switch (r.type) {
      case EventType::kServerFail: ++fails; break;
      case EventType::kServerRepair: ++repairs; break;
      case EventType::kBootComplete: ++boots; break;
      case EventType::kBootTimeout: ++hangs; break;
      default: break;
    }
  }
  EXPECT_GT(fails, 500u);
  EXPECT_GT(repairs, 300u);
  EXPECT_GT(boots, 200u);
  EXPECT_GT(hangs, 50u);
  for (const std::uint32_t k : {3u, 8u}) {
    const FaultHistory sliced = partitioned_history(faults, kServers, k, kHorizon);
    EXPECT_EQ(sliced.log, whole.log) << "K=" << k;
    EXPECT_EQ(sliced.hangs, whole.hangs) << "K=" << k;
  }
}

}  // namespace
}  // namespace gc
