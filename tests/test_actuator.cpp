// Unit tests for the ack/retry command actuator (control/actuator):
// generation stamping, timeout-driven retransmission with bounded
// exponential backoff and jitter, budget exhaustion reconciling to acked
// state, stale-ack accounting, and lane supersession.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "control/actuator.h"
#include "stats/rng.h"

namespace gc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ActuatorOptions on_options() {
  ActuatorOptions opts;
  opts.enabled = true;
  opts.ack_timeout_s = 1.0;
  return opts;
}

CommandActuator make_actuator(const ActuatorOptions& opts) {
  return CommandActuator(opts, Rng(123, 14));
}

TEST(ActuatorOptions, ValidatesRanges) {
  ActuatorOptions opts;
  EXPECT_NO_THROW(opts.validate());
  opts.ack_timeout_s = 0.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.ack_timeout_s = kInf;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ActuatorOptions, ConstructorValidates) {
  ActuatorOptions opts;
  opts.ack_timeout_s = 0.0;
  EXPECT_THROW(make_actuator(opts), std::invalid_argument);
}

TEST(Actuator, GenerationsAreMonotonicPerLane) {
  CommandActuator act = make_actuator(on_options());
  const Command t1 = act.issue(0.0, CommandKind::kTarget, 8.0, /*era=*/0);
  const Command s1 = act.issue(0.0, CommandKind::kSpeed, 0.9, /*era=*/0);
  const Command t2 = act.issue(1.0, CommandKind::kTarget, 9.0, /*era=*/0);
  EXPECT_EQ(t1.gen, 1u);
  EXPECT_EQ(s1.gen, 1u);  // lanes are independent
  EXPECT_EQ(t2.gen, 2u);
  EXPECT_EQ(t1.kind, CommandKind::kTarget);
  EXPECT_EQ(s1.kind, CommandKind::kSpeed);
}

TEST(Actuator, DisabledStillStampsButNeverRetries) {
  ActuatorOptions opts = on_options();
  opts.enabled = false;
  CommandActuator act = make_actuator(opts);
  const Command c1 = act.issue(0.0, CommandKind::kTarget, 8.0, 0);
  const Command c2 = act.issue(0.0, CommandKind::kTarget, 9.0, 0);
  EXPECT_EQ(c1.gen, 1u);
  EXPECT_EQ(c2.gen, 2u);  // reorder protection stays on
  EXPECT_FALSE(act.outstanding(CommandKind::kTarget));
  std::vector<Command> due;
  act.poll(100.0, due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(act.retries(), 0u);
  // Acks for fire-and-forget commands read as stale, not as progress.
  act.on_ack(1.0, CommandKind::kTarget, c1.gen);
  EXPECT_EQ(act.acked(), 0u);
  EXPECT_EQ(act.stale_acks(), 1u);
}

TEST(Actuator, AckClearsOutstandingAndRecordsValue) {
  CommandActuator act = make_actuator(on_options());
  const Command cmd = act.issue(0.0, CommandKind::kTarget, 12.0, 0);
  EXPECT_TRUE(act.outstanding(CommandKind::kTarget));
  EXPECT_EQ(act.acked_value(CommandKind::kTarget), std::nullopt);
  act.on_ack(0.5, CommandKind::kTarget, cmd.gen);
  EXPECT_FALSE(act.outstanding(CommandKind::kTarget));
  EXPECT_EQ(act.acked_value(CommandKind::kTarget), std::optional<double>(12.0));
  EXPECT_EQ(act.acked(), 1u);
  // A duplicate ack (retransmitted ack for the same gen) is stale.
  act.on_ack(0.6, CommandKind::kTarget, cmd.gen);
  EXPECT_EQ(act.acked(), 1u);
  EXPECT_EQ(act.stale_acks(), 1u);
}

TEST(Actuator, RetransmitsAfterTimeoutWithSameGeneration) {
  CommandActuator act = make_actuator(on_options());
  const Command cmd = act.issue(0.0, CommandKind::kSpeed, 0.8, /*era=*/2);
  std::vector<Command> due;
  act.poll(0.5, due);  // before the ack timeout: nothing due
  EXPECT_TRUE(due.empty());
  act.poll(1.0, due);  // timeout reached
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].gen, cmd.gen);  // re-asserts, does not invent a new command
  EXPECT_EQ(due[0].value, 0.8);
  EXPECT_EQ(due[0].era, 2u);
  EXPECT_EQ(act.retries(), 1u);
}

TEST(Actuator, BackoffDoublesAndIsCapped) {
  ActuatorOptions opts = on_options();
  opts.ack_timeout_s = 10.0;
  CommandActuator act = make_actuator(opts);
  (void)act.issue(0.0, CommandKind::kTarget, 4.0, 0);
  // The first retransmission fires at exactly the ack timeout...
  std::vector<Command> due;
  act.poll(9.99, due);
  EXPECT_TRUE(due.empty());
  act.poll(10.0, due);
  ASSERT_EQ(due.size(), 1u);
  // ...then each wait is ack_timeout_s * 2^k capped at 60 s, stretched by a
  // jitter factor in [1, 1.1): an uncapped fourth wait (80 s) would not fit
  // under 1.1 * 60 s.
  const double waits[] = {10.0, 20.0, 40.0, 60.0, 60.0};
  double t = 10.0;
  for (const double w : waits) {
    due.clear();
    act.poll(t + w - 0.01, due);
    EXPECT_TRUE(due.empty()) << "premature retry before t=" << t + w;
    t += w * (1.0 + CommandActuator::kJitterFrac);
    act.poll(t, due);
    ASSERT_EQ(due.size(), 1u) << "missing retry by t=" << t;
  }
  EXPECT_EQ(act.retries(), CommandActuator::kRetryBudget);  // 6
  // The budget is spent: the next deadline reconciles instead of retrying.
  due.clear();
  act.poll(t + 60.0 * (1.0 + CommandActuator::kJitterFrac), due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(act.exhausted(), 1u);
  EXPECT_FALSE(act.outstanding(CommandKind::kTarget));
}

TEST(Actuator, JitterStretchesBackoffWithinBound) {
  // The second retransmission's wait is ack_timeout_s * (1 + 0.1 U[0,1)):
  // find when it fires on a fine grid, for a few seeds.
  std::vector<double> fired_at;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CommandActuator act(on_options(), Rng(seed, 14));
    (void)act.issue(0.0, CommandKind::kTarget, 4.0, 0);
    std::vector<Command> due;
    act.poll(1.0, due);  // the un-jittered timeout
    ASSERT_EQ(due.size(), 1u);
    due.clear();
    double t = 1.0 + 1.0 - 1e-4;
    while (due.empty() && t < 3.0) {
      t += 1e-4;
      act.poll(t, due);
    }
    ASSERT_EQ(due.size(), 1u);
    EXPECT_GE(t, 2.0 - 1e-9) << "seed " << seed;
    EXPECT_LT(t, 2.0 + CommandActuator::kJitterFrac + 1e-4) << "seed " << seed;
    fired_at.push_back(t);
  }
  // The jitter is drawn: different seeds retry at different instants.
  EXPECT_NE(*std::min_element(fired_at.begin(), fired_at.end()),
            *std::max_element(fired_at.begin(), fired_at.end()));
}

TEST(Actuator, BudgetExhaustionReconcilesToAckedState) {
  CommandActuator act = make_actuator(on_options());
  // First command acked: establishes fleet truth.
  const Command c1 = act.issue(0.0, CommandKind::kTarget, 10.0, 0);
  act.on_ack(0.1, CommandKind::kTarget, c1.gen);
  // Second command never acked: retries then exhausts (waits 1, 2, ..., 32
  // s, each at most 10% longer, put the last deadline before t = 80).
  (void)act.issue(1.0, CommandKind::kTarget, 16.0, 0);
  std::vector<Command> due;
  for (double t = 2.0; t < 120.0; t += 1.0) act.poll(t, due);
  EXPECT_EQ(act.retries(), CommandActuator::kRetryBudget);
  EXPECT_EQ(act.exhausted(), 1u);
  EXPECT_FALSE(act.outstanding(CommandKind::kTarget));
  // Reconciliation: the reported state is what the fleet confirmed.
  EXPECT_EQ(act.acked_value(CommandKind::kTarget), std::optional<double>(10.0));
}

TEST(Actuator, SupersededCommandStopsRetryingAndItsAckIsStale) {
  CommandActuator act = make_actuator(on_options());
  const Command c1 = act.issue(0.0, CommandKind::kTarget, 10.0, 0);
  const Command c2 = act.issue(0.5, CommandKind::kTarget, 12.0, 0);
  EXPECT_GT(c2.gen, c1.gen);
  // The late ack for the superseded command is stale and changes nothing.
  act.on_ack(0.7, CommandKind::kTarget, c1.gen);
  EXPECT_EQ(act.stale_acks(), 1u);
  EXPECT_TRUE(act.outstanding(CommandKind::kTarget));
  EXPECT_EQ(act.acked_value(CommandKind::kTarget), std::nullopt);
  // Only the new command retransmits.
  std::vector<Command> due;
  act.poll(2.0, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].gen, c2.gen);
  act.on_ack(2.1, CommandKind::kTarget, c2.gen);
  EXPECT_EQ(act.acked_value(CommandKind::kTarget), std::optional<double>(12.0));
}

TEST(Actuator, AckForWrongLaneIsStale) {
  CommandActuator act = make_actuator(on_options());
  const Command cmd = act.issue(0.0, CommandKind::kTarget, 10.0, 0);
  act.on_ack(0.1, CommandKind::kSpeed, cmd.gen);
  EXPECT_EQ(act.stale_acks(), 1u);
  EXPECT_TRUE(act.outstanding(CommandKind::kTarget));
}

TEST(Actuator, BothLanesRetryIndependently) {
  CommandActuator act = make_actuator(on_options());
  (void)act.issue(0.0, CommandKind::kTarget, 10.0, 0);
  (void)act.issue(0.0, CommandKind::kSpeed, 0.75, 0);
  std::vector<Command> due;
  act.poll(1.0, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_NE(static_cast<int>(due[0].kind), static_cast<int>(due[1].kind));
}

TEST(Actuator, AckedCommandsNeverDrawRandomness) {
  // The determinism contract: only a retransmission draws jitter.  `a`
  // runs commands that are acked before their timeout, `b` does not; with
  // the same seed both must then draw the same first jitter, so their
  // jittered second retries fire on the same grid step.
  CommandActuator a(on_options(), Rng(1, 14));
  CommandActuator b(on_options(), Rng(1, 14));
  std::vector<Command> due;
  for (int i = 0; i < 5; ++i) {
    const double now = static_cast<double>(i);
    const Command c = a.issue(now, CommandKind::kTarget, 10.0 + i, 0);
    a.poll(now + 0.5, due);
    a.on_ack(now + 0.5, CommandKind::kTarget, c.gen);
  }
  EXPECT_TRUE(due.empty());
  (void)a.issue(10.0, CommandKind::kSpeed, 0.5, 0);
  (void)b.issue(10.0, CommandKind::kSpeed, 0.5, 0);
  for (double t = 10.5; t < 13.0; t += 1e-4) {
    std::vector<Command> da;
    std::vector<Command> db;
    a.poll(t, da);
    b.poll(t, db);
    ASSERT_EQ(da.size(), db.size()) << "diverged at t=" << t;
  }
  EXPECT_EQ(a.retries(), 2u);
  EXPECT_EQ(b.retries(), 2u);
}

TEST(Actuator, ToStringNamesKinds) {
  EXPECT_STREQ(to_string(CommandKind::kTarget), "target");
  EXPECT_STREQ(to_string(CommandKind::kSpeed), "speed");
}

}  // namespace
}  // namespace gc
