#include "sim/cluster.h"

#include <gtest/gtest.h>

namespace gc {
namespace {

ClusterOptions small_options() {
  ClusterOptions options;
  options.num_servers = 4;
  options.initial_active = 2;
  options.transition.boot_delay_s = 10.0;
  options.transition.shutdown_delay_s = 2.0;
  return options;
}

Job make_job(std::uint64_t id, double arrival, double size) {
  Job job;
  job.id = id;
  job.arrival_time = arrival;
  job.size = size;
  job.remaining = size;
  return job;
}

// Drives the queue, dispatching server events back into the cluster.
// Returns completed jobs.  Stops at `until`.
std::vector<Job> drive(EventQueue& queue, Cluster& cluster, double until) {
  std::vector<Job> done;
  while (const auto e = queue.pop()) {
    if (e->time > until) break;
    switch (e->type) {
      case EventType::kDeparture:
        done.push_back(cluster.handle_departure(e->time, e->subject));
        break;
      case EventType::kBootComplete:
        cluster.handle_boot_complete(e->time, e->subject);
        break;
      case EventType::kShutdownComplete:
        cluster.handle_shutdown_complete(e->time, e->subject);
        break;
      default:
        break;
    }
  }
  return done;
}

TEST(Cluster, InitialCounts) {
  EventQueue queue;
  const Cluster cluster(small_options(), &queue);
  EXPECT_EQ(cluster.serving_count(), 2u);
  EXPECT_EQ(cluster.committed_count(), 2u);
  EXPECT_EQ(cluster.powered_count(), 2u);
  EXPECT_EQ(cluster.num_servers(), 4u);
}

TEST(Cluster, RejectsBadOptions) {
  EventQueue queue;
  ClusterOptions options = small_options();
  options.num_servers = 0;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
  options = small_options();
  options.initial_active = 5;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
  options = small_options();
  options.initial_speed = 0.0;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
}

TEST(Cluster, ScaleUpBootsServers) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  cluster.set_active_target(0.0, 4);
  EXPECT_EQ(cluster.serving_count(), 2u);    // boots take time
  EXPECT_EQ(cluster.committed_count(), 4u);
  EXPECT_EQ(cluster.totals().boots, 2u);
  (void)drive(queue, cluster, 100.0);
  EXPECT_EQ(cluster.serving_count(), 4u);
}

TEST(Cluster, ScaleDownDrainsIdleServersImmediately) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  cluster.set_active_target(0.0, 1);
  // One idle server drains straight into shutdown.
  EXPECT_EQ(cluster.serving_count(), 1u);
  EXPECT_EQ(cluster.totals().shutdowns, 1u);
  (void)drive(queue, cluster, 100.0);
  EXPECT_EQ(cluster.powered_count(), 1u);
}

TEST(Cluster, ScaleDownWaitsForBusyServers) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  // Load both servers.
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 5.0)));
  ASSERT_TRUE(cluster.route_job(0.0, make_job(2, 0.0, 5.0)));
  cluster.set_active_target(0.0, 1);
  // Victim is draining but still busy: no shutdown yet.
  EXPECT_EQ(cluster.totals().shutdowns, 0u);
  EXPECT_EQ(cluster.serving_count(), 1u);
  const auto done = drive(queue, cluster, 100.0);
  EXPECT_EQ(done.size(), 2u);  // both jobs complete (no migration, no loss)
  EXPECT_EQ(cluster.totals().shutdowns, 1u);
  EXPECT_EQ(cluster.powered_count(), 1u);
}

TEST(Cluster, ReviveDrainingBeforeBooting) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 50.0)));
  ASSERT_TRUE(cluster.route_job(0.0, make_job(2, 0.0, 50.0)));
  cluster.set_active_target(0.0, 1);  // drain one (busy, so it lingers)
  EXPECT_EQ(cluster.serving_count(), 1u);
  cluster.set_active_target(1.0, 2);  // should revive, not boot
  EXPECT_EQ(cluster.serving_count(), 2u);
  EXPECT_EQ(cluster.totals().boots, 0u);
}

TEST(Cluster, NeverDrainsLastServingServer) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  cluster.set_active_target(0.0, 1);
  EXPECT_EQ(cluster.serving_count(), 1u);
  // Target 0 is clamped to 1 and the last server is protected.
  cluster.set_active_target(1.0, 0);
  EXPECT_EQ(cluster.serving_count(), 1u);
}

TEST(Cluster, RouteJobSchedulesDeparture) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 2.0)));
  EXPECT_EQ(cluster.jobs_in_system(), 1u);
  const auto done = drive(queue, cluster, 10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 1u);
  EXPECT_EQ(cluster.jobs_in_system(), 0u);
}

TEST(Cluster, SpeedChangeRetimesAllDepartures) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 2.0)));  // ETA 2 at s=1
  cluster.set_all_speeds(1.0, 0.5);  // 1.0 work left -> finishes at 3.0
  const auto done = drive(queue, cluster, 10.0);
  ASSERT_EQ(done.size(), 1u);
  // Verify the finish time via the meter: flush at known time and check
  // jobs_in_system cleared before t=3.01.
  EXPECT_EQ(cluster.jobs_in_system(), 0u);
}

TEST(Cluster, EnergyBreakdownSumsToTotal) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 3.0)));
  (void)drive(queue, cluster, 10.0);
  cluster.flush_energy(10.0);
  const EnergyBreakdown energy = cluster.energy();
  EXPECT_GT(energy.busy_j, 0.0);
  EXPECT_GT(energy.idle_j, 0.0);
  EXPECT_GT(energy.off_j, 0.0);  // two OFF servers
  EXPECT_NEAR(energy.total_j(),
              energy.busy_j + energy.idle_j + energy.transition_j + energy.off_j, 1e-9);
}

TEST(Cluster, EnergyConservationScripted) {
  // 2 servers ON idle for 10 s + 2 OFF: 2*150*10 + 2*5*10 = 3100 J.
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  cluster.flush_energy(10.0);
  EXPECT_NEAR(cluster.energy().total_j(), 3100.0, 1e-9);
}

TEST(Cluster, InstantaneousPowerTracksState) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  // 2 idle ON at 150 + 2 OFF at 5 = 310.
  EXPECT_NEAR(cluster.instantaneous_power(), 310.0, 1e-9);
  ASSERT_TRUE(cluster.route_job(0.0, make_job(1, 0.0, 5.0)));
  // One busy at 250 now.
  EXPECT_NEAR(cluster.instantaneous_power(), 250.0 + 150.0 + 10.0, 1e-9);
}

TEST(Cluster, BootThenTargetDownLetsBootLand) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  cluster.set_active_target(0.0, 4);  // boot 2 (committed 4)
  cluster.set_active_target(1.0, 2);  // drain idles, but keep >= 1 serving
  // Only one of the two idle ON servers may drain before the boots land
  // (the last serving server is protected), so 3 end up serving; the next
  // control decision trims the extra.
  (void)drive(queue, cluster, 50.0);
  EXPECT_EQ(cluster.serving_count(), 3u);
  cluster.set_active_target(50.0, 2);
  (void)drive(queue, cluster, 100.0);
  EXPECT_EQ(cluster.serving_count(), 2u);
}

ClusterOptions grouped_options() {
  ClusterOptions options;
  ServerGroupSpec fast;
  fast.count = 3;
  fast.rate_scale = 2.0;
  fast.initial_active = 2;
  fast.initial_speed = 1.0;
  ServerGroupSpec slow;
  slow.count = 2;
  slow.rate_scale = 1.0;
  slow.initial_active = 1;
  slow.initial_speed = 0.5;
  options.groups = {fast, slow};
  options.transition.boot_delay_s = 4.0;
  options.transition.shutdown_delay_s = 1.0;
  return options;
}

TEST(ClusterGroups, LayoutAndCounts) {
  EventQueue queue;
  const Cluster cluster(grouped_options(), &queue);
  EXPECT_EQ(cluster.num_servers(), 5u);
  EXPECT_EQ(cluster.group_of(0), 0u);
  EXPECT_EQ(cluster.group_of(2), 0u);
  EXPECT_EQ(cluster.group_of(3), 1u);
  EXPECT_DEATH((void)cluster.group_of(99), "out of range");
}

TEST(ClusterGroups, PerGroupRateScaleAffectsServiceTime) {
  EventQueue queue;
  Cluster cluster(grouped_options(), &queue);
  // Route one job into the fast group (scale 2 at s=1): a 2.0-work job
  // completes in 1 s.
  ASSERT_TRUE(cluster.route_job_to_group(0.0, 0, make_job(1, 0.0, 2.0)));
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->type, EventType::kDeparture);
  EXPECT_DOUBLE_EQ(e->time, 1.0);
  (void)cluster.handle_departure(e->time, e->subject);
  // Same job in the slow group (scale 1 at s=0.5): 4 s.
  ASSERT_TRUE(cluster.route_job_to_group(1.0, 1, make_job(2, 1.0, 2.0)));
  const auto e2 = queue.pop();
  ASSERT_TRUE(e2.has_value());
  EXPECT_DOUBLE_EQ(e2->time, 5.0);
}

TEST(ClusterGroups, RoutingToEmptyGroupDrops) {
  EventQueue queue;
  ClusterOptions options = grouped_options();
  options.groups[1].initial_active = 0;
  Cluster cluster(options, &queue);
  EXPECT_FALSE(cluster.route_job_to_group(100.0, 1, make_job(9, 100.0, 1.0)));
  EXPECT_EQ(cluster.totals().dropped, 1u);
}

TEST(ClusterGroups, RejectsBadGroupSpecs) {
  EventQueue queue;
  ClusterOptions options = grouped_options();
  options.groups[0].count = 0;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
  options = grouped_options();
  options.groups[0].initial_active = 99;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
  options = grouped_options();
  options.groups[0].rate_scale = 0.0;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
  options = grouped_options();
  options.groups[0].initial_active = 0;
  options.groups[1].initial_active = 0;
  EXPECT_THROW(Cluster(options, &queue), std::invalid_argument);
}

TEST(Cluster, ServerAccessorBounds) {
  EventQueue queue;
  Cluster cluster(small_options(), &queue);
  EXPECT_EQ(cluster.server(0).index(), 0u);
  EXPECT_DEATH((void)cluster.server(99), "out of range");
}

}  // namespace
}  // namespace gc
