// Randomized invariant test: drive a cluster with a random interleaving of
// arrivals, control actions, crashes, repairs, hung boots and event
// processing, and check after every step that
//   * every fleet count, the serving list and the watts column equal what
//     a full scan of the servers gives (the watts column bit for bit);
//   * jobs are conserved: routed == completed + lost + in flight;
//   * a job is dropped only while nothing is serving;
//   * energy is finite and non-decreasing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "sim/cluster.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"
#include "stats/rng.h"

namespace gc {
namespace {

class ClusterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterPropertyTest, RandomWalkKeepsInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  EventQueue queue;
  ClusterOptions options;
  options.num_servers = 8;
  options.initial_active = 4;
  options.transition.boot_delay_s = 2.0;
  options.transition.shutdown_delay_s = 0.5;
  Cluster cluster(options, &queue);
  // Only the boot-hang draw: crashes and repairs are steps of the walk.
  FaultOptions faults;
  faults.boot_hang_prob = 0.3;
  FaultInjector injector(faults, 99 + GetParam(), options.num_servers);
  cluster.set_fault_injector(&injector);

  double now = 0.0;
  std::uint64_t next_job_id = 1;
  std::uint64_t routed = 0;
  std::uint64_t completed = 0;
  double last_energy = 0.0;

  auto check_invariants = [&] {
    unsigned serving = 0, booting = 0, powered = 0, failed = 0;
    std::vector<std::uint32_t> serving_list;
    double metered = 0.0;
    for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
      const Server& s = cluster.server(i);
      if (s.serving()) {
        ++serving;
        serving_list.push_back(i);
      }
      if (s.state() == PowerState::kBooting) ++booting;
      if (s.state() != PowerState::kOff) ++powered;
      if (s.failed()) ++failed;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cluster.watts(i)),
                std::bit_cast<std::uint64_t>(s.instantaneous_power()))
          << "server " << i;
      metered += s.instantaneous_power();
    }
    ASSERT_EQ(cluster.serving_count(), serving);
    ASSERT_EQ(cluster.committed_count(), serving + booting);
    ASSERT_EQ(cluster.powered_count(), powered);
    ASSERT_EQ(cluster.failed_count(), failed);
    ASSERT_EQ(cluster.available_count(), cluster.num_servers() - failed);
    const auto list = cluster.serving_list();
    ASSERT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()), serving_list);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cluster.instantaneous_power()),
              std::bit_cast<std::uint64_t>(metered));
    // Job conservation.
    ASSERT_EQ(routed, completed + cluster.totals().lost + cluster.jobs_in_system());
    // Energy monotone.
    cluster.flush_energy(now);
    const double energy = cluster.energy().total_j();
    ASSERT_GE(energy, last_energy - 1e-9);
    ASSERT_TRUE(std::isfinite(energy));
    last_energy = energy;
  };

  // Routes one event back into the cluster.
  auto handle = [&](const Event& event) {
    switch (event.type) {
      case EventType::kDeparture: {
        const Job job = cluster.handle_departure(now, event.subject);
        ASSERT_GE(now, job.arrival_time);
        ++completed;
        break;
      }
      case EventType::kBootComplete:
        cluster.handle_boot_complete(now, event.subject);
        break;
      case EventType::kShutdownComplete:
        cluster.handle_shutdown_complete(now, event.subject);
        break;
      case EventType::kBootTimeout:
        cluster.timeout_boot(now, event.subject);
        break;
      default:
        FAIL() << "unexpected event " << to_string(event.type);
    }
  };

  for (int step = 0; step < 5000; ++step) {
    const double dice = rng.uniform01();
    const auto victim = static_cast<std::uint32_t>(rng.uniform_below(8));
    if (dice < 0.35) {
      // Arrival.
      Job job;
      job.id = next_job_id++;
      job.arrival_time = now;
      job.size = 0.01 + rng.uniform01() * 0.5;
      job.remaining = job.size;
      const unsigned serving = cluster.serving_count();
      if (cluster.route_job(now, job)) {
        ++routed;
      } else {
        ASSERT_EQ(serving, 0u) << "dropped while a server was serving";
      }
    } else if (dice < 0.45) {
      cluster.set_active_target(now, 1 + static_cast<unsigned>(rng.uniform_below(8)));
    } else if (dice < 0.55) {
      const double speeds[] = {0.25, 0.5, 0.75, 1.0};
      cluster.set_all_speeds(now, speeds[rng.uniform_below(4)]);
    } else if (dice < 0.58) {
      (void)cluster.fail_server(now, victim);  // a no-op when OFF or FAILED
    } else if (dice < 0.61) {
      if (cluster.server(victim).failed()) cluster.repair_server(now, victim);
    } else {
      // Process the next event (if any), advancing time.
      const auto event = queue.pop();
      if (event) {
        now = event->time;
        handle(*event);
        if (HasFatalFailure()) return;
      } else {
        now += 0.1;  // idle tick
      }
    }
    check_invariants();
    if (HasFatalFailure()) return;
  }

  // Drain everything and verify total conservation.
  while (const auto event = queue.pop()) {
    now = event->time;
    handle(*event);
    if (HasFatalFailure()) return;
  }
  check_invariants();
  EXPECT_EQ(cluster.jobs_in_system(), 0u);
  EXPECT_EQ(routed, completed + cluster.totals().lost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace gc
