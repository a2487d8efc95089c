#include "workload/workload.h"

#include <gtest/gtest.h>

#include <memory>

namespace gc {
namespace {

std::vector<JobArrival> drain(Workload& workload) {
  std::vector<JobArrival> jobs;
  while (const auto j = workload.next()) jobs.push_back(*j);
  return jobs;
}

TEST(Workload, PoissonExponentialShape) {
  Workload w = Workload::poisson_exponential(20.0, 10.0, 1000.0, 42);
  const auto jobs = drain(w);
  EXPECT_NEAR(static_cast<double>(jobs.size()), 20000.0, 5.0 * 142.0);
  double size_sum = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GT(j.size, 0.0);
    size_sum += j.size;
  }
  EXPECT_NEAR(size_sum / static_cast<double>(jobs.size()), 0.1, 0.005);
}

TEST(Workload, ArrivalsAreMonotone) {
  Workload w = Workload::poisson_exponential(5.0, 10.0, 500.0, 7);
  double prev = -1.0;
  while (const auto j = w.next()) {
    EXPECT_GE(j->time, prev);
    prev = j->time;
  }
}

TEST(Workload, ProfileExponentialUsesProfile) {
  auto profile = std::make_shared<ConstantRate>(15.0);
  Workload w = Workload::profile_exponential(profile, 10.0, 2000.0, 3);
  const auto jobs = drain(w);
  EXPECT_NEAR(static_cast<double>(jobs.size()), 30000.0, 5.0 * 174.0);
}

TEST(Workload, TraceReplayPreservesArrivalTimes) {
  const Trace trace({1.0, 2.0, 3.5});
  Workload w = Workload::trace_replay(trace, Distribution::deterministic(0.5), 1);
  const auto jobs = drain(w);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(jobs[1].time, 2.0);
  EXPECT_DOUBLE_EQ(jobs[2].size, 0.5);
}

TEST(Workload, NameMentionsBothParts) {
  Workload w = Workload::poisson_exponential(1.0, 2.0, 10.0, 1);
  EXPECT_NE(w.name().find("poisson"), std::string::npos);
  EXPECT_NE(w.name().find("exp"), std::string::npos);
}

TEST(Workload, ProfileSizedUsesGivenDistribution) {
  auto profile = std::make_shared<ConstantRate>(10.0);
  Workload w = Workload::profile_sized(profile, Distribution::deterministic(0.125),
                                       500.0, 5);
  const auto jobs = drain(w);
  ASSERT_GT(jobs.size(), 1000u);
  for (const auto& j : jobs) EXPECT_DOUBLE_EQ(j.size, 0.125);
}

TEST(Workload, ProfileSizedSameArrivalsAsExponentialVariant) {
  // Same seed -> identical arrival process regardless of the size law.
  auto profile = std::make_shared<ConstantRate>(10.0);
  Workload a = Workload::profile_exponential(profile, 10.0, 200.0, 9);
  Workload b = Workload::profile_sized(profile, Distribution::deterministic(0.1),
                                       200.0, 9);
  const auto ja = drain(a);
  const auto jb = drain(b);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_DOUBLE_EQ(ja[i].time, jb[i].time);
  }
}

TEST(Workload, SeedsChangeBothArrivalsAndSizes) {
  Workload a = Workload::poisson_exponential(10.0, 5.0, 100.0, 1);
  Workload b = Workload::poisson_exponential(10.0, 5.0, 100.0, 2);
  const auto ja = drain(a);
  const auto jb = drain(b);
  bool time_differs = ja.size() != jb.size();
  for (std::size_t i = 0; !time_differs && i < std::min(ja.size(), jb.size()); ++i) {
    time_differs = ja[i].time != jb[i].time;
  }
  EXPECT_TRUE(time_differs);
}

}  // namespace
}  // namespace gc
