// Model-based property test: the EventQueue against a reference
// implementation (std::multimap ordered by (time, seq)) under a random
// stream of schedule / cancel / pop operations, and with the arrival slot
// (schedule_arrival) against a plain schedule(t, kArrival) in the reference.
//
// The real queue hands out generation-stamped slot ids, the reference a
// plain monotone counter; a real<->reference id map translates between the
// two so cancel hits/misses and pop order can still be compared exactly.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "stats/rng.h"

namespace gc {
namespace {

class ReferenceQueue {
 public:
  EventId schedule(double time, EventType type, std::uint32_t subject) {
    ++seq_;
    entries_.emplace(std::make_pair(time, seq_), Event{time, type, subject, seq_});
    return seq_;
  }

  bool cancel(EventId id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.id == id) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::optional<Event> pop() {
    if (entries_.empty()) return std::nullopt;
    const Event event = entries_.begin()->second;
    entries_.erase(entries_.begin());
    now_ = event.time;
    return event;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] double next_time() const { return entries_.begin()->first.first; }
  [[nodiscard]] std::uint64_t scheduled_total() const { return seq_; }
  // Pending events at exactly `time`.
  [[nodiscard]] std::size_t count_at(double time) const {
    std::size_t n = 0;
    for (const auto& entry : entries_) n += entry.first.first == time ? 1 : 0;
    return n;
  }
  [[nodiscard]] double now() const { return now_; }

 private:
  std::map<std::pair<double, std::uint64_t>, Event> entries_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

class EventQueueModelTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueModelTest, RandomOperationStreamsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  EventQueue real;
  ReferenceQueue reference;
  // Parallel vectors: issued_real[i] / issued_ref[i] are the ids the two
  // queues returned for the i-th schedule call (fired or not — cancels are
  // drawn from the full history to exercise stale-id behaviour).
  std::vector<EventId> issued_real;
  std::vector<EventId> issued_ref;
  std::unordered_map<EventId, EventId> real_to_ref;

  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      // Schedule at or after `now`.
      const double time = real.now() + rng.uniform01() * 10.0;
      const auto type = static_cast<EventType>(rng.uniform_below(8));
      const auto subject = static_cast<std::uint32_t>(rng.uniform_below(64));
      const EventId a = real.schedule(time, type, subject);
      const EventId b = reference.schedule(time, type, subject);
      ASSERT_NE(a, kInvalidEventId);
      // Generation stamping must make every issued id unique, even when a
      // slot is recycled.
      ASSERT_TRUE(real_to_ref.emplace(a, b).second) << "duplicate id " << a;
      issued_real.push_back(a);
      issued_ref.push_back(b);
    } else if (dice < 0.65 && !issued_real.empty()) {
      // Cancel a random (possibly already-fired or already-cancelled) id.
      const std::size_t pick = rng.uniform_below(issued_real.size());
      ASSERT_EQ(real.cancel(issued_real[pick]), reference.cancel(issued_ref[pick]))
          << "schedule #" << pick;
    } else {
      const auto a = real.pop();
      const auto b = reference.pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_DOUBLE_EQ(a->time, b->time);
        ASSERT_EQ(real_to_ref.at(a->id), b->id);
        ASSERT_EQ(a->type, b->type);
        ASSERT_EQ(a->subject, b->subject);
      }
    }
    ASSERT_EQ(real.size(), reference.size()) << "step " << step;
    ASSERT_DOUBLE_EQ(real.now(), reference.now()) << "step " << step;
  }

  // Drain both completely and compare the tails.
  for (;;) {
    const auto a = real.pop();
    const auto b = reference.pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(real_to_ref.at(a->id), b->id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest, ::testing::Range(0, 5));

// The arrival slot against the reference's plain kArrival.  Times sit on a
// 0.25 s grid a few steps past now, so the slot arrival ties exactly with
// departures and ticks scheduled both before and after it.
class ArrivalSlotModelTest : public ::testing::TestWithParam<int> {};

TEST_P(ArrivalSlotModelTest, SlotArrivalsRankLikeScheduledOnes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  EventQueue real;
  ReferenceQueue reference;
  std::vector<EventId> issued_real;
  std::vector<EventId> issued_ref;
  std::unordered_map<EventId, EventId> real_to_ref;
  // The reference id of the pending slot arrival (slot arrivals have no
  // real id and are never cancelled).
  std::optional<EventId> slot_ref;
  double slot_time = 0.0;
  const auto grid_time = [&] {
    return real.now() + 0.25 * static_cast<double>(rng.uniform_below(4));
  };
  // Ties the slot lost (a heap event scheduled before it at its time popped
  // first) and won (it popped with later-scheduled events at its time).
  std::uint64_t ties_heap_first = 0;
  std::uint64_t ties_slot_first = 0;

  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.25) {
      const double time = grid_time();
      static constexpr EventType kTypes[] = {EventType::kDeparture, EventType::kShortTick,
                                             EventType::kLongTick, EventType::kArrival};
      const EventType type = kTypes[rng.uniform_below(4)];
      const auto subject = static_cast<std::uint32_t>(rng.uniform_below(16));
      const EventId a = real.schedule(time, type, subject);
      const EventId b = reference.schedule(time, type, subject);
      ASSERT_TRUE(real_to_ref.emplace(a, b).second);
      issued_real.push_back(a);
      issued_ref.push_back(b);
    } else if (dice < 0.45) {
      if (!slot_ref) {
        const double time = grid_time();
        real.schedule_arrival(time);
        slot_ref = reference.schedule(time, EventType::kArrival, 0);
        slot_time = time;
      }
    } else if (dice < 0.55 && !issued_real.empty()) {
      const std::size_t pick = rng.uniform_below(issued_real.size());
      ASSERT_EQ(real.cancel(issued_real[pick]), reference.cancel(issued_ref[pick]));
    } else {
      const std::size_t tied = slot_ref ? reference.count_at(slot_time) : 0;
      const auto a = real.pop();
      const auto b = reference.pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(a->time, b->time) << "step " << step;
        ASSERT_EQ(a->type, b->type) << "step " << step;
        ASSERT_EQ(a->subject, b->subject);
        if (a->id == kInvalidEventId) {
          ASSERT_TRUE(slot_ref.has_value());
          ASSERT_EQ(*slot_ref, b->id) << "step " << step;
          slot_ref.reset();
          if (tied > 1) ++ties_slot_first;
        } else {
          ASSERT_EQ(real_to_ref.at(a->id), b->id) << "step " << step;
          if (tied > 1 && a->time == slot_time) ++ties_heap_first;
        }
      }
    }
    ASSERT_EQ(real.size(), reference.size()) << "step " << step;
    ASSERT_EQ(real.empty(), reference.size() == 0) << "step " << step;
    if (!real.empty()) {
      ASSERT_EQ(real.next_time(), reference.next_time()) << "step " << step;
    }
    ASSERT_EQ(real.scheduled_total(), reference.scheduled_total()) << "step " << step;
    ASSERT_EQ(real.now(), reference.now()) << "step " << step;
  }
  // The stream tied the slot against the heap in both schedule orders.
  EXPECT_GT(ties_heap_first, 100u);
  EXPECT_GT(ties_slot_first, 100u);

  for (;;) {
    const auto a = real.pop();
    const auto b = reference.pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    if (a->id == kInvalidEventId) {
      ASSERT_TRUE(slot_ref.has_value());
      ASSERT_EQ(*slot_ref, b->id);
      slot_ref.reset();
    } else {
      ASSERT_EQ(real_to_ref.at(a->id), b->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalSlotModelTest, ::testing::Range(0, 5));

// -- generation-stamp specifics ---------------------------------------------

TEST(EventQueueGenerationTest, CancelledSlotIsRecycledWithFreshGeneration) {
  EventQueue q;
  const EventId first = q.schedule(1.0, EventType::kArrival, 7);
  ASSERT_TRUE(q.cancel(first));
  // The freed slot is reused, so the new id shares the low slot bits but
  // must differ in generation — and thus as a whole.
  const EventId second = q.schedule(2.0, EventType::kDeparture, 8);
  EXPECT_EQ(first & 0xffffffffULL, second & 0xffffffffULL);
  EXPECT_NE(first, second);
  // The stale id must not hit the recycled slot's new tenant.
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  const auto event = q.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->id, second);
  EXPECT_EQ(event->type, EventType::kDeparture);
}

TEST(EventQueueGenerationTest, CancelAfterFireIsANoOp) {
  EventQueue q;
  const EventId id = q.schedule(1.0, EventType::kArrival, 0);
  const auto event = q.pop();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->id, id);
  EXPECT_FALSE(q.cancel(id));
  // ... including when the fired event's slot now hosts a live event.
  const EventId next = q.schedule(2.0, EventType::kDeparture, 1);
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(next));
}

TEST(EventQueueGenerationTest, ManyRecyclesNeverAliasLiveIds) {
  EventQueue q;
  EventId previous = kInvalidEventId;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = q.schedule(static_cast<double>(round), EventType::kShortTick,
                                  static_cast<std::uint32_t>(round));
    ASSERT_NE(id, previous);
    if (previous != kInvalidEventId) {
      EXPECT_FALSE(q.cancel(previous)) << "round " << round;
    }
    ASSERT_TRUE(q.cancel(id));
    previous = id;
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
}

}  // namespace
}  // namespace gc
