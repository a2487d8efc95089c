#include "sim/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace gc {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  PowerModel pm_;  // idle 150, max 250, alpha 3, gated

  Job make_job(std::uint64_t id, double arrival, double size) {
    Job job;
    job.id = id;
    job.arrival_time = arrival;
    job.size = size;
    job.remaining = size;
    return job;
  }
};

TEST_F(ServerTest, StartsInRequestedState) {
  const Server on(0, &pm_, 1.0, true, 0.0);
  EXPECT_EQ(on.state(), PowerState::kOn);
  EXPECT_TRUE(on.serving());
  const Server off(1, &pm_, 1.0, false, 0.0);
  EXPECT_EQ(off.state(), PowerState::kOff);
  EXPECT_FALSE(off.serving());
}

TEST_F(ServerTest, ServiceTimingAtFullSpeed) {
  Server server(0, &pm_, 1.0, true, 0.0);
  const auto eta = server.enqueue(0.0, make_job(1, 0.0, 2.0));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 2.0);
  const auto completion = server.complete_current(2.0);
  EXPECT_EQ(completion.finished.id, 1u);
  EXPECT_FALSE(completion.next_eta.has_value());
  EXPECT_FALSE(server.busy());
}

TEST_F(ServerTest, ServiceTimingAtHalfSpeed) {
  Server server(0, &pm_, 0.5, true, 0.0);
  const auto eta = server.enqueue(0.0, make_job(1, 0.0, 2.0));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 4.0);
}

TEST_F(ServerTest, FcfsOrdering) {
  Server server(0, &pm_, 1.0, true, 0.0);
  (void)server.enqueue(0.0, make_job(1, 0.0, 1.0));
  const auto eta2 = server.enqueue(0.1, make_job(2, 0.1, 1.0));
  EXPECT_FALSE(eta2.has_value());  // queued behind job 1
  EXPECT_EQ(server.queue_length(), 2u);
  const auto first = server.complete_current(1.0);
  EXPECT_EQ(first.finished.id, 1u);
  ASSERT_TRUE(first.next_eta.has_value());
  EXPECT_DOUBLE_EQ(*first.next_eta, 2.0);
  const auto second = server.complete_current(2.0);
  EXPECT_EQ(second.finished.id, 2u);
}

TEST_F(ServerTest, SpeedChangeMidServiceRetimesCompletion) {
  Server server(0, &pm_, 1.0, true, 0.0);
  (void)server.enqueue(0.0, make_job(1, 0.0, 4.0));  // ETA 4 at s=1
  // After 2s, half done (2.0 work left).  Slow to 0.5: 2.0/0.5 = 4 more s.
  const auto eta = server.set_speed(2.0, pm_.draw(0.5));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 6.0);
  // Speed back up at t=4 (1.0 work left): 1.0/1.0 = 1 more s.
  const auto eta2 = server.set_speed(4.0, pm_.draw(1.0));
  ASSERT_TRUE(eta2.has_value());
  EXPECT_DOUBLE_EQ(*eta2, 5.0);
  const auto completion = server.complete_current(5.0);
  EXPECT_EQ(completion.finished.id, 1u);
}

TEST_F(ServerTest, SetSpeedWhenIdleReturnsNothing) {
  Server server(0, &pm_, 1.0, true, 0.0);
  EXPECT_FALSE(server.set_speed(1.0, pm_.draw(0.5)).has_value());
  EXPECT_DOUBLE_EQ(server.speed(), 0.5);
}

TEST_F(ServerTest, SetSameSpeedIsNoop) {
  Server server(0, &pm_, 0.5, true, 0.0);
  (void)server.enqueue(0.0, make_job(1, 0.0, 1.0));
  EXPECT_FALSE(server.set_speed(0.5, pm_.draw(0.5)).has_value());
}

TEST_F(ServerTest, OutstandingWorkTracksProgress) {
  Server server(0, &pm_, 1.0, true, 0.0);
  (void)server.enqueue(0.0, make_job(1, 0.0, 4.0));
  (void)server.enqueue(0.0, make_job(2, 0.0, 3.0));
  EXPECT_DOUBLE_EQ(server.outstanding_work(0.0), 7.0);
  EXPECT_DOUBLE_EQ(server.outstanding_work(1.0), 6.0);
  EXPECT_DOUBLE_EQ(server.outstanding_work(4.0), 3.0);
}

// A long busy period that never drains: each completion admits one more
// job, so the FIFO's consumed prefix keeps growing until it is compacted
// (several times over 250 jobs).  Job sizes are dyadic, so every sum below
// is exact.
TEST_F(ServerTest, FifoStaysFcfsAcrossCompaction) {
  Server server(0, &pm_, 1.0, true, 0.0);
  const auto size_of = [](std::uint64_t id) {
    return 0.25 * static_cast<double>(id % 7 + 1);
  };
  std::uint64_t next_id = 0;
  double waiting_work = 0.0;  // work of the jobs behind the one in service
  const auto admit = [&](double now) {
    const double size = size_of(next_id);
    const auto eta = server.enqueue(now, make_job(next_id, now, size));
    if (next_id > 0) waiting_work += size;
    ++next_id;
    return eta;
  };
  ASSERT_TRUE(admit(0.0).has_value());  // job 0 goes straight into service
  for (int i = 0; i < 9; ++i) EXPECT_FALSE(admit(0.0).has_value());
  EXPECT_EQ(server.queue_length(), 10u);
  EXPECT_DOUBLE_EQ(server.outstanding_work(0.0), size_of(0) + waiting_work);

  double now = 0.0;
  double eta = size_of(0);
  std::uint64_t expect_id = 0;
  for (; expect_id < 250; ++expect_id) {
    now = eta;
    const auto done = server.complete_current(now);
    EXPECT_EQ(done.finished.id, expect_id) << "FCFS order broke";
    ASSERT_TRUE(done.next_eta.has_value());  // the backlog never drains
    eta = *done.next_eta;
    const double in_service = size_of(expect_id + 1);
    waiting_work -= in_service;
    EXPECT_DOUBLE_EQ(eta, now + in_service);
    EXPECT_FALSE(admit(now).has_value());
    EXPECT_EQ(server.queue_length(), 10u);
    EXPECT_DOUBLE_EQ(server.outstanding_work(now), in_service + waiting_work);
  }

  // Crash half-way through the job in service: the orphans come back in
  // service order, the in-flight job first with its banked progress.
  const double crash_at = now + 0.5 * (eta - now);
  const std::vector<Job> orphans = server.fail(crash_at);
  ASSERT_EQ(orphans.size(), 10u);
  EXPECT_DOUBLE_EQ(orphans[0].remaining, 0.5 * size_of(expect_id));
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    EXPECT_EQ(orphans[i].id, expect_id + i);
  }
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(server.outstanding_work(crash_at), 0.0);

  // The emptied FIFO serves again after repair and reboot.
  server.finish_repair(crash_at + 1.0);
  server.start_boot(crash_at + 1.0);
  server.finish_boot(crash_at + 2.0);
  ASSERT_TRUE(
      server.enqueue(crash_at + 2.0, make_job(999, crash_at + 2.0, 1.0)).has_value());
  EXPECT_FALSE(
      server.enqueue(crash_at + 2.0, make_job(1000, crash_at + 2.0, 1.0)).has_value());
  EXPECT_EQ(server.complete_current(crash_at + 3.0).finished.id, 999u);
  EXPECT_EQ(server.complete_current(crash_at + 4.0).finished.id, 1000u);
  EXPECT_EQ(server.queue_length(), 0u);
}

TEST_F(ServerTest, BootLifecycle) {
  Server server(0, &pm_, 1.0, false, 0.0);
  server.start_boot(1.0);
  EXPECT_EQ(server.state(), PowerState::kBooting);
  EXPECT_FALSE(server.serving());
  server.finish_boot(11.0);
  EXPECT_EQ(server.state(), PowerState::kOn);
  EXPECT_TRUE(server.serving());
}

TEST_F(ServerTest, DrainAndShutdownLifecycle) {
  Server server(0, &pm_, 1.0, true, 0.0);
  server.set_draining(1.0, true);
  EXPECT_FALSE(server.serving());
  EXPECT_TRUE(server.draining());
  server.begin_shutdown(2.0);
  EXPECT_EQ(server.state(), PowerState::kShuttingDown);
  server.finish_shutdown(4.0);
  EXPECT_EQ(server.state(), PowerState::kOff);
}

TEST_F(ServerTest, ReviveDrainingServer) {
  Server server(0, &pm_, 1.0, true, 0.0);
  server.set_draining(1.0, true);
  server.set_draining(2.0, false);
  EXPECT_TRUE(server.serving());
}

TEST_F(ServerTest, CannotShutdownWithWork) {
  Server server(0, &pm_, 1.0, true, 0.0);
  (void)server.enqueue(0.0, make_job(1, 0.0, 5.0));
  server.set_draining(1.0, true);
  EXPECT_DEATH(server.begin_shutdown(1.0), "empty");
}

TEST_F(ServerTest, EnqueueOnNonServingServerDies) {
  Server server(0, &pm_, 1.0, false, 0.0);
  EXPECT_DEATH((void)server.enqueue(0.0, make_job(1, 0.0, 1.0)), "not serving");
}

TEST_F(ServerTest, EnergyAccountingScriptedScenario) {
  // t=0..2 idle at s=1; t=2..4 busy at s=1; t=4..6 busy at s=0.5
  // (via speed change at 4 with 1.0 work left); completes at 6.
  Server server(0, &pm_, 1.0, true, 0.0);
  (void)server.enqueue(2.0, make_job(1, 2.0, 3.0));  // ETA 5 at s=1
  const auto eta = server.set_speed(4.0, pm_.draw(0.5));  // 1.0 left -> 2 more s
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 6.0);
  (void)server.complete_current(6.0);
  server.flush_energy(6.0);
  const EnergyMeter& meter = server.meter();
  // Idle: 2 s at 150 W.
  EXPECT_DOUBLE_EQ(meter.joules_idle(), 300.0);
  // Busy: 2 s at 250 W (s=1) + 2 s at 150+100*0.125 = 162.5 W.
  EXPECT_DOUBLE_EQ(meter.joules_busy(), 500.0 + 325.0);
  EXPECT_DOUBLE_EQ(meter.joules_off(), 0.0);
}

TEST_F(ServerTest, BootEnergyIsTransition) {
  Server server(0, &pm_, 1.0, false, 0.0);
  server.start_boot(0.0);
  server.finish_boot(10.0);
  server.flush_energy(10.0);
  EXPECT_DOUBLE_EQ(server.meter().joules_transition(), 2500.0);
}

TEST_F(ServerTest, CompletionEtaRequiresBusy) {
  Server server(0, &pm_, 1.0, true, 0.0);
  EXPECT_DEATH((void)server.completion_eta(0.0), "no job");
  EXPECT_DEATH((void)server.complete_current(0.0), "no job");
}

}  // namespace
}  // namespace gc
