// Equivalence oracle for the indexed dispatcher hot path: for every
// DispatchPolicy, the indexed pick (over the incrementally-maintained
// serving set) must produce the exact same pick sequence as the retained
// O(M) reference scan, across server lifecycle churn — boots, failures,
// repairs, drains and shutdowns.
//
// Two Dispatcher instances are seeded identically; one is fed the sorted
// serving index the test maintains alongside the fleet, the other rebuilds
// the set by scanning.  Any divergence in candidate set, order, or RNG
// consumption shows up as a mismatched pick.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "power/power_model.h"
#include "sim/dispatcher.h"
#include "sim/job.h"
#include "sim/server.h"
#include "stats/rng.h"

namespace gc {
namespace {

constexpr std::uint32_t kNumServers = 48;

class DispatcherEquivalenceTest : public ::testing::TestWithParam<DispatchPolicy> {
 protected:
  DispatcherEquivalenceTest() {
    servers_.reserve(kNumServers);
    for (std::uint32_t i = 0; i < kNumServers; ++i) {
      // Half the fleet starts ON so there is a serving set from step one.
      servers_.emplace_back(i, &power_, /*initial_speed=*/1.0,
                            /*initially_on=*/i % 2 == 0, /*start_time=*/0.0);
    }
    rebuild_index();
  }

  void rebuild_index() {
    index_.clear();
    for (const Server& s : servers_) {
      if (s.serving()) index_.push_back(s.index());
    }
  }

  // Applies one random lifecycle mutation, then refreshes the index the
  // same way the fleet store's serving list would hold it: sorted indices
  // of the currently-serving servers.
  void churn(double now, Rng& rng) {
    Server& s = servers_[static_cast<std::size_t>(rng.uniform_below(kNumServers))];
    switch (rng.uniform_below(4)) {
      case 0:  // advance towards ON
        if (s.state() == PowerState::kOff) s.start_boot(now);
        else if (s.state() == PowerState::kBooting) s.finish_boot(now);
        else if (s.state() == PowerState::kOn && s.draining()) s.set_draining(now, false);
        break;
      case 1:  // advance towards OFF
        if (s.serving() && index_.size() > 1) s.set_draining(now, true);
        else if (s.state() == PowerState::kOn && s.draining() && !s.busy()) {
          s.begin_shutdown(now);
        } else if (s.state() == PowerState::kShuttingDown) {
          s.finish_shutdown(now);
        }
        break;
      case 2:  // crash / repair
        if (s.failed()) s.finish_repair(now);
        else if (s.state() != PowerState::kOff && !(s.serving() && index_.size() <= 1)) {
          (void)s.fail(now);
        }
        break;
      case 3:  // load it up, so JSQ/least-work have something to compare
        if (s.serving()) {
          Job job;
          job.id = next_job_++;
          job.size = 0.5 + rng.uniform01();
          job.remaining = job.size;
          job.arrival_time = now;
          (void)s.enqueue(now, job);
        }
        break;
    }
    rebuild_index();
  }

  PowerModel power_{PowerModelParams{}};
  std::vector<Server> servers_;
  std::vector<std::uint32_t> index_;
  std::uint64_t next_job_ = 0;
};

TEST_P(DispatcherEquivalenceTest, IndexedAndScanPicksAgreeUnderChurn) {
  Dispatcher indexed(GetParam(), Rng(2024, /*stream=*/3));
  Dispatcher scanning(GetParam(), Rng(2024, /*stream=*/3));
  Rng churn_rng(511);

  double now = 0.0;
  for (int step = 0; step < 5000; ++step) {
    now += 0.25;
    churn(now, churn_rng);
    const long a = indexed.pick(now, servers_, index_);
    const long b = scanning.pick(now, servers_);
    ASSERT_EQ(a, b) << to_string(GetParam()) << " diverged at step " << step;
    if (a >= 0) {
      // Route the job both dispatchers chose, so queue lengths evolve and
      // later JSQ/least-work comparisons are non-trivial.
      Job job;
      job.id = next_job_++;
      job.size = 1.0;
      job.remaining = job.size;
      job.arrival_time = now;
      (void)servers_[static_cast<std::size_t>(a)].enqueue(now, job);
    }
  }
}

TEST_P(DispatcherEquivalenceTest, EmptyServingSetReturnsMinusOneOnBothPaths) {
  Dispatcher indexed(GetParam(), Rng(7, /*stream=*/3));
  Dispatcher scanning(GetParam(), Rng(7, /*stream=*/3));
  std::vector<Server> fleet;
  fleet.emplace_back(0, &power_, 1.0, /*initially_on=*/false, 0.0);
  const std::vector<std::uint32_t> empty;
  EXPECT_EQ(indexed.pick(0.0, fleet, empty), -1);
  EXPECT_EQ(scanning.pick(0.0, fleet), -1);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DispatcherEquivalenceTest,
                         ::testing::Values(DispatchPolicy::kRoundRobin,
                                           DispatchPolicy::kRandom,
                                           DispatchPolicy::kJoinShortestQueue,
                                           DispatchPolicy::kLeastWork),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case DispatchPolicy::kRoundRobin: return "RoundRobin";
                             case DispatchPolicy::kRandom: return "Random";
                             case DispatchPolicy::kJoinShortestQueue: return "Jsq";
                             case DispatchPolicy::kLeastWork: return "LeastWork";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace gc
