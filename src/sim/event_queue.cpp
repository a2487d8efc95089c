#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace gc {
namespace {

constexpr std::uint64_t kIdSlotMask = 0xffffffffULL;

[[nodiscard]] EventId pack_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
}

}  // namespace

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kArrival: return "arrival";
    case EventType::kDeparture: return "departure";
    case EventType::kBootComplete: return "boot_complete";
    case EventType::kShutdownComplete: return "shutdown_complete";
    case EventType::kShortTick: return "short_tick";
    case EventType::kLongTick: return "long_tick";
    case EventType::kRecord: return "record";
    case EventType::kWarmupEnd: return "warmup_end";
    case EventType::kServerFail: return "server_fail";
    case EventType::kServerRepair: return "server_repair";
    case EventType::kBootTimeout: return "boot_timeout";
    case EventType::kTelemetryDeliver: return "telemetry_deliver";
    case EventType::kCommandDeliver: return "command_deliver";
    case EventType::kAckDeliver: return "ack_deliver";
    case EventType::kControllerFail: return "controller_fail";
    case EventType::kControllerRecover: return "controller_recover";
  }
  return "?";
}

void EventQueue::sift_up(std::size_t index) {
  const Entry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, entry);
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const Entry entry = heap_[index];
  for (;;) {
    const std::size_t first = 4 * index + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    place(index, heap_[best]);
    index = best;
  }
  place(index, entry);
}

void EventQueue::erase_at(std::size_t index) {
  const Entry tail = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // erased the last entry
  place(index, tail);
  // The tail can belong either above or below the hole; one of these is a
  // no-op after its first comparison.
  sift_down(index);
  sift_up(index);
}

void EventQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  note_growth(free_slots_);
  free_slots_.push_back(slot);
}

void EventQueue::reserve(std::size_t capacity) {
  heap_.reserve(capacity);
  slots_.reserve(capacity);
  free_slots_.reserve(capacity);
}

EventId EventQueue::schedule(double time, EventType type, std::uint32_t subject) {
  GC_CHECK(time >= now_, "EventQueue: scheduling into the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    GC_CHECK(slot <= kSlotMask, "EventQueue: too many concurrently pending events");
    note_growth(slots_);
    slots_.emplace_back();
  }
  const std::uint64_t key = next_key(slot);
  Slot& s = slots_[slot];
  s.type = type;
  s.subject = subject;
  // `+ 0.0` canonicalizes -0.0, the one non-negative double whose bit
  // pattern would misorder under the integer compare.
  note_growth(heap_);
  heap_.push_back(Entry{std::bit_cast<std::uint64_t>(time + 0.0), key});
  s.pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return pack_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot_plus_one = id & kIdSlotMask;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  // A fired, cancelled or recycled id carries a stale generation: no-op.
  if (slots_[slot].gen != static_cast<std::uint32_t>(id >> 32)) return false;
  const std::uint32_t pos = slots_[slot].pos;
  GC_CHECK(pos < heap_.size() && (heap_[pos].key & kSlotMask) == slot,
           "EventQueue: slot position index out of sync");
  retire_slot(slot);
  erase_at(pos);
  return true;
}

std::optional<Event> EventQueue::pop_heap() {
  if (heap_.empty()) return std::nullopt;
  const Entry top = heap_.front();
  const auto slot = static_cast<std::uint32_t>(top.key & kSlotMask);
  const Slot& s = slots_[slot];
  const double time = std::bit_cast<double>(top.time_bits);
  const Event event{time, s.type, s.subject, pack_id(slot, s.gen)};
  retire_slot(slot);
  const Entry tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, tail);
    sift_down(0);
  }
  now_ = time;
  return event;
}

}  // namespace gc
