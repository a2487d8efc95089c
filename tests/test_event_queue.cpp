#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"

namespace gc {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(3.0, EventType::kArrival);
  queue.schedule(1.0, EventType::kDeparture, 5);
  queue.schedule(2.0, EventType::kRecord);
  std::vector<double> times;
  while (const auto e = queue.pop()) times.push_back(e->time);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue queue;
  queue.schedule(1.0, EventType::kLongTick);
  queue.schedule(1.0, EventType::kShortTick);
  queue.schedule(1.0, EventType::kArrival);
  std::vector<EventType> types;
  while (const auto e = queue.pop()) types.push_back(e->type);
  EXPECT_EQ(types, (std::vector<EventType>{EventType::kLongTick, EventType::kShortTick,
                                           EventType::kArrival}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue queue;
  queue.schedule(1.0, EventType::kArrival);
  const EventId id = queue.schedule(2.0, EventType::kDeparture);
  queue.schedule(3.0, EventType::kRecord);
  EXPECT_TRUE(queue.cancel(id));
  std::vector<EventType> types;
  while (const auto e = queue.pop()) types.push_back(e->type);
  EXPECT_EQ(types, (std::vector<EventType>{EventType::kArrival, EventType::kRecord}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, EventType::kArrival);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(kInvalidEventId));
  EXPECT_FALSE(queue.cancel(9999));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, EventType::kArrival);
  queue.schedule(2.0, EventType::kRecord);
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.cancel(id));       // already fired
  EXPECT_TRUE(queue.pop().has_value()); // the record event survives
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  const EventId a = queue.schedule(1.0, EventType::kArrival);
  queue.schedule(2.0, EventType::kRecord);
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);
  (void)queue.pop();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(EventQueue, NowAdvancesWithPops) {
  EventQueue queue;
  queue.schedule(1.5, EventType::kArrival);
  queue.schedule(4.0, EventType::kRecord);
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  (void)queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 1.5);
  (void)queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
}

TEST(EventQueue, SchedulingIntoThePastDies) {
  EventQueue queue;
  queue.schedule(5.0, EventType::kArrival);
  (void)queue.pop();
  EXPECT_DEATH(queue.schedule(4.0, EventType::kArrival), "past");
}

TEST(EventQueue, SchedulingAtNowIsAllowed) {
  EventQueue queue;
  queue.schedule(5.0, EventType::kArrival);
  (void)queue.pop();
  EXPECT_NO_FATAL_FAILURE(queue.schedule(5.0, EventType::kRecord));
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->time, 5.0);
}

// -- the arrival slot ---------------------------------------------------------

TEST(EventQueueArrivalSlot, CountsAsAPendingEvent) {
  EventQueue queue;
  queue.schedule_arrival(2.0);
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  EXPECT_EQ(queue.scheduled_total(), 1u);
  queue.schedule(3.0, EventType::kRecord);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);  // the slot is earlier
  queue.schedule(1.0, EventType::kDeparture, 4);
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);  // the heap top is earlier
  EXPECT_EQ(queue.scheduled_total(), 3u);

  std::vector<EventType> types;
  while (const auto e = queue.pop()) types.push_back(e->type);
  EXPECT_EQ(types, (std::vector<EventType>{EventType::kDeparture, EventType::kArrival,
                                           EventType::kRecord}));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueArrivalSlot, PopsAnArrivalWithNoId) {
  EventQueue queue;
  queue.schedule_arrival(1.5);
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->type, EventType::kArrival);
  EXPECT_EQ(e->subject, 0u);
  EXPECT_EQ(e->id, kInvalidEventId);
  EXPECT_DOUBLE_EQ(queue.now(), 1.5);
  EXPECT_TRUE(queue.empty());
  // The slot is free again, also at now().
  queue.schedule_arrival(1.5);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueArrivalSlot, TiesBreakInScheduleOrderBothWays) {
  EventQueue queue;
  queue.schedule(1.0, EventType::kLongTick);
  queue.schedule_arrival(1.0);
  queue.schedule(1.0, EventType::kShortTick);
  std::vector<EventType> types;
  while (const auto e = queue.pop()) types.push_back(e->type);
  EXPECT_EQ(types, (std::vector<EventType>{EventType::kLongTick, EventType::kArrival,
                                           EventType::kShortTick}));
}

TEST(EventQueueArrivalSlot, ASecondPendingArrivalDies) {
  EventQueue queue;
  queue.schedule_arrival(1.0);
  EXPECT_DEATH(queue.schedule_arrival(2.0), "second pending arrival");
}

TEST(EventQueueArrivalSlot, AnArrivalIntoThePastDies) {
  EventQueue queue;
  queue.schedule(5.0, EventType::kRecord);
  (void)queue.pop();
  EXPECT_DEATH(queue.schedule_arrival(4.0), "past");
}

TEST(EventQueue, SubjectAndIdRoundTrip) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, EventType::kDeparture, 42);
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->subject, 42u);
  EXPECT_EQ(e->id, id);
  EXPECT_EQ(e->type, EventType::kDeparture);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue queue;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    queue.schedule(rng.uniform01() * 1000.0, EventType::kArrival);
  }
  double prev = -1.0;
  std::size_t count = 0;
  while (const auto e = queue.pop()) {
    EXPECT_GE(e->time, prev);
    prev = e->time;
    ++count;
  }
  EXPECT_EQ(count, 10000u);
}

TEST(EventTypeNames, ToString) {
  EXPECT_STREQ(to_string(EventType::kArrival), "arrival");
  EXPECT_STREQ(to_string(EventType::kWarmupEnd), "warmup_end");
}

TEST(EventTypeNames, ControlPlaneEventsHaveNames) {
  EXPECT_STREQ(to_string(EventType::kTelemetryDeliver), "telemetry_deliver");
  EXPECT_STREQ(to_string(EventType::kCommandDeliver), "command_deliver");
  EXPECT_STREQ(to_string(EventType::kAckDeliver), "ack_deliver");
  EXPECT_STREQ(to_string(EventType::kControllerFail), "controller_fail");
  EXPECT_STREQ(to_string(EventType::kControllerRecover), "controller_recover");
}

// -- Slot-recycling edge cases ----------------------------------------------
// EventIds are generation-stamped slot handles (gen << 32 | slot + 1).  A
// fired or cancelled slot is recycled with a bumped generation, so a stale
// id must never cancel the slot's new tenant.

TEST(EventQueueRecycling, StaleIdCannotCancelRecycledSlot) {
  EventQueue queue;
  const EventId old_id = queue.schedule(1.0, EventType::kArrival);
  ASSERT_TRUE(queue.pop().has_value());  // fires; the slot is recycled
  // The new tenant reuses the same slot (single-slot queue) with a fresh
  // generation: ids differ in the generation half only.
  const EventId new_id = queue.schedule(2.0, EventType::kDeparture, 7);
  EXPECT_NE(old_id, new_id);
  EXPECT_EQ(old_id & 0xffffffffULL, new_id & 0xffffffffULL);
  EXPECT_NE(old_id >> 32, new_id >> 32);
  // Cancelling the dead id is a detected no-op; the new tenant survives.
  EXPECT_FALSE(queue.cancel(old_id));
  const auto event = queue.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->type, EventType::kDeparture);
  EXPECT_EQ(event->subject, 7u);
}

TEST(EventQueueRecycling, CancelAfterCancelOnRecycledSlot) {
  EventQueue queue;
  const EventId first = queue.schedule(1.0, EventType::kArrival);
  EXPECT_TRUE(queue.cancel(first));
  const EventId second = queue.schedule(1.0, EventType::kArrival);
  // The first id is two generations behind by now; still a no-op.
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_TRUE(queue.cancel(second));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueRecycling, ForgedGenerationIsRejected) {
  EventQueue queue;
  const EventId id = queue.schedule(5.0, EventType::kDeparture, 3);
  // Same slot, wrong generation: must not touch the live event.
  EXPECT_FALSE(queue.cancel(id ^ (1ULL << 32)));
  EXPECT_FALSE(queue.cancel(id + (1ULL << 32)));
  // Valid slot bits but a generation from the far future (as after a
  // hypothetical wraparound that did NOT land on the live value).
  EXPECT_FALSE(queue.cancel((id & 0xffffffffULL) | (0xdeadbeefULL << 32)));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.cancel(id));  // the genuine id still works
}

TEST(EventQueueRecycling, ManyRecycleCyclesKeepIdsUnique) {
  // Drive one slot through many fire/cancel cycles: every handed-out id is
  // distinct, and every dead id stays dead.
  EventQueue queue;
  std::vector<EventId> dead;
  double t = 0.0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    t += 1.0;
    const EventId id = queue.schedule(t, EventType::kArrival);
    for (const EventId d : dead) EXPECT_NE(id, d);
    if (cycle % 2 == 0) {
      ASSERT_TRUE(queue.pop().has_value());
    } else {
      EXPECT_TRUE(queue.cancel(id));
    }
    dead.push_back(id);
  }
  // A sample of dead ids across the whole history: all no-ops.
  for (std::size_t i = 0; i < dead.size(); i += 97) {
    EXPECT_FALSE(queue.cancel(dead[i]));
  }
}

TEST(EventQueueRecycling, RecycledSlotKeepsHeapConsistentUnderChurn) {
  // Interleave schedule/cancel across multiple slots so recycled slots are
  // claimed while older entries are still live, then verify pop order.
  EventQueue queue;
  const EventId a = queue.schedule(3.0, EventType::kArrival, 0);
  const EventId b = queue.schedule(1.0, EventType::kDeparture, 1);
  (void)queue.schedule(2.0, EventType::kRecord, 2);
  EXPECT_TRUE(queue.cancel(b));  // slot recycled while a and c are pending
  const EventId d = queue.schedule(1.5, EventType::kBootComplete, 3);
  EXPECT_FALSE(queue.cancel(b));  // b's id is stale even though d reuses its slot
  std::vector<EventType> order;
  while (const auto event = queue.pop()) order.push_back(event->type);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], EventType::kBootComplete);
  EXPECT_EQ(order[1], EventType::kRecord);
  EXPECT_EQ(order[2], EventType::kArrival);
  EXPECT_FALSE(queue.cancel(a));  // fired
  EXPECT_FALSE(queue.cancel(d));  // fired
}

}  // namespace
}  // namespace gc
