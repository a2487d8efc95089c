// Discrete-event calendar with O(1) generation-stamped cancellation.
//
// Events are ordered by (time, sequence number): ties break in schedule
// order, which makes runs fully deterministic.
//
// Hot-path design (see DESIGN.md "Performance engineering"):
//
//   * EventIds are generation-stamped slot handles: the low 32 bits hold
//     `slot + 1` (so 0 stays kInvalidEventId), the high 32 bits the slot's
//     generation at schedule time.  Cancel validates the generation, then
//     bumps it and returns the slot to a free list — O(1) lookup, no
//     hashing.  A recycled slot hands out a fresh generation, so cancelling
//     a stale id (fired, cancelled, or recycled) is always a detected
//     no-op, never a false hit.  (A slot's generation would have to wrap
//     all 2^32 values *and* land back on a live duplicate to confuse it.)
//   * Heap entries are 16 bytes — the time bit-cast to an integer (valid
//     for the non-negative times the schedule precondition guarantees, and
//     branch-free to compare) and a packed (seq, slot) key — so sift
//     compares touch half the cache lines a naive layout would;
//     type/subject/generation live in a per-slot side array read only at
//     pop and cancel.
//   * Cancellation is indexed, not lazy: each slot records its entry's
//     heap position (maintained by the sift loops), so cancel splices the
//     entry out in O(log n).  The heap holds exactly the live events — no
//     tombstones inflating its depth, and pop never has to shed stale
//     entries.  This matters because cancellation is hot: every speed
//     change cancels and reschedules the server's pending departure.
//   * The heap is 4-ary: half the depth of a binary heap and four children
//     per cache line of entries, which is where the per-event constant
//     factor goes at cluster sizes in the hundreds.  sift_down() picks the
//     smallest of a full family of four as a branch-free tournament on the
//     128-bit (time_bits, key) order: random departure times made the old
//     compare-and-branch scan mispredict about half its picks, at every
//     level of a sharded fleet's thousands-deep heap.
//   * The arrival stream bypasses the heap.  The sequential engine keeps
//     exactly one arrival pending at a time, so schedule_arrival() parks it
//     in a one-entry slot beside the heap instead of pushing it (half the
//     day's heap traffic).  The slot takes its sequence number exactly as
//     schedule() would, and the inline pop() returns it when its (time,
//     seq) comes before the heap top: every event keeps its rank, so the
//     pop order is the one an all-heap queue gives, ties included.  An
//     empty slot costs pop() one predictable branch.  Slot arrivals carry
//     kInvalidEventId and cannot be cancelled.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.h"

namespace gc {

enum class EventType : int {
  kArrival = 0,          // subject: unused (job data lives in the simulation)
  kDeparture = 1,        // subject: server index
  kBootComplete = 2,     // subject: server index
  kShutdownComplete = 3, // subject: server index
  kShortTick = 4,
  kLongTick = 5,
  kRecord = 6,
  kWarmupEnd = 7,
  // Fault injection (sim/fault_injector.h).
  kServerFail = 8,     // subject: server index (background fault process / script)
  kServerRepair = 9,   // subject: server index
  kBootTimeout = 10,   // subject: server index (a boot that hung instead of completing)
  // Control-plane degradation (sim/control_channel.h).  Subjects for the
  // deliveries are SlotStore payload slots, not server indices.
  kTelemetryDeliver = 11,   // a fleet-state sample reaches the controller
  kCommandDeliver = 12,     // a target-m / speed command reaches the fleet
  kAckDeliver = 13,         // a command ack reaches the actuator
  kControllerFail = 14,     // subject: outage script index (or ~0 = random)
  kControllerRecover = 15,
};
[[nodiscard]] const char* to_string(EventType type) noexcept;

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

struct Event {
  double time = 0.0;
  EventType type = EventType::kArrival;
  std::uint32_t subject = 0;
  EventId id = kInvalidEventId;
};

class EventQueue {
 public:
  EventQueue() = default;

  // Pre-sizes the heap, the slot table and the free list for `capacity`
  // concurrently pending events (SimulationOptions::expected_events_hint):
  // the hot loop then runs reallocation-free as long as the live set stays
  // within the hint.  A hint, not a cap — exceeding it just grows normally.
  void reserve(std::size_t capacity);

  // `time` must be >= now() (the time of the last popped event); enforced
  // with GC_CHECK — a violation aborts rather than corrupting causality.
  EventId schedule(double time, EventType type, std::uint32_t subject = 0);

  // Schedules the one pending kArrival (subject 0) in the arrival slot; it
  // takes the next sequence number and ranks exactly as a kArrival passed
  // to schedule() would.  `time` must be >= now() and no slot arrival may
  // be pending (both GC_CHECKed).
  void schedule_arrival(double time) {
    GC_CHECK(time >= now_, "EventQueue: scheduling into the past");
    GC_CHECK(!has_arrival(), "EventQueue: a second pending arrival");
    arrival_ = Entry{std::bit_cast<std::uint64_t>(time + 0.0), next_key(0)};
  }

  // Cancels a pending event; cancelling an already-fired, already-cancelled
  // or recycled id is a no-op (returns false).
  bool cancel(EventId id);

  // Next live event, or nullopt when drained.  Inline: the slot check runs
  // once per event of the sequential engine.
  [[nodiscard]] std::optional<Event> pop() {
    if (heap_.empty() ? has_arrival() : before(arrival_, heap_.front())) {
      const double time = std::bit_cast<double>(arrival_.time_bits);
      arrival_.time_bits = kNoArrival;
      now_ = time;
      return Event{time, EventType::kArrival, 0, kInvalidEventId};
    }
    return pop_heap();
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty() && !has_arrival(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + (has_arrival() ? 1 : 0);
  }
  // Time of the earliest pending event without popping it (the sharded
  // engine's window loop drains events up to a barrier).  empty() must be
  // false.
  [[nodiscard]] double next_time() const noexcept {
    const bool slot_first = heap_.empty() || before(arrival_, heap_.front());
    return std::bit_cast<double>((slot_first ? arrival_ : heap_.front()).time_bits);
  }
  // Time of the last popped event (0 before any pop).
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept { return next_seq_; }
  // Storage growths (vector reallocations across the heap, slot table and
  // free list) since construction; flat in steady state once reserve()d
  // (asserted by bench/perf_smoke).
  [[nodiscard]] std::uint64_t reallocations() const noexcept { return reallocations_; }

 private:
  // Heap entry: 16 bytes.  `time_bits` is the event time bit-cast to an
  // integer — valid because times are non-negative (enforced by the
  // schedule precondition from now() = 0), where IEEE-754 doubles order
  // identically to their bit patterns — so the heap predicate is one
  // 128-bit unsigned compare (order_key) with no jump.  `key` packs the
  // schedule sequence number (high bits) over the slot index (low
  // kSlotBits); comparing keys compares sequence numbers (unique), so the
  // heap order is (time, seq) and the slot rides along for free.
  struct Entry {
    std::uint64_t time_bits;
    std::uint64_t key;
  };
  static constexpr unsigned kSlotBits = 22;  // up to ~4M concurrently pending
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  // Per-slot metadata, read at cancel and pop.  `pos` is the heap index of
  // the slot's entry, kept current by the sift loops so cancel can splice
  // the entry out directly.
  struct Slot {
    std::uint32_t gen = 0;  // bumped on every fire/cancel
    std::uint32_t pos = 0;  // heap index of the current tenant's entry
    EventType type = EventType::kArrival;
    std::uint32_t subject = 0;
  };
  // The empty arrival slot's time bits: a NaN pattern above every
  // non-negative double's, so the slot never comes before a heap entry.
  static constexpr std::uint64_t kNoArrival = ~0ULL;

  [[nodiscard]] bool has_arrival() const noexcept {
    return arrival_.time_bits != kNoArrival;
  }
  // Takes the next sequence number and packs it over `slot`.
  [[nodiscard]] std::uint64_t next_key(std::uint32_t slot) {
    const std::uint64_t seq = ++next_seq_;
    GC_CHECK(seq <= (~0ULL >> kSlotBits), "EventQueue: sequence space exhausted");
    return (seq << kSlotBits) | slot;
  }
  // pop() for the heap top (the slot is empty or ranks after it).
  [[nodiscard]] std::optional<Event> pop_heap();

  // (time_bits, key) as one 128-bit unsigned integer: the lexicographic
  // pair order is its numeric order, and the compiler lowers `<` on it to a
  // cmp/sbb borrow chain with no jump — what the four-child tournament in
  // sift_down() needs.  __int128 is a GNU extension; `__extension__` keeps
  // -Wpedantic quiet about it.
  __extension__ typedef unsigned __int128 OrderKey;
  [[nodiscard]] static OrderKey order_key(const Entry& e) noexcept {
    return (static_cast<OrderKey>(e.time_bits) << 64) | e.key;
  }
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return order_key(a) < order_key(b);
  }
  void place(std::size_t index, const Entry& entry) noexcept {
    heap_[index] = entry;
    slots_[entry.key & kSlotMask].pos = static_cast<std::uint32_t>(index);
  }
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  // Splices the entry at `index` out of the heap (fills the hole with the
  // last entry and restores heap order around it).
  void erase_at(std::size_t index);
  // Marks the slot's current event dead and recycles the slot.
  void retire_slot(std::uint32_t slot);

  // Counts an imminent push_back that will grow `vec`'s storage.
  template <typename V>
  void note_growth(const V& vec) noexcept {
    if (vec.size() == vec.capacity()) ++reallocations_;
  }

  std::vector<Entry> heap_;  // 4-ary min-heap on (time, key), live events only
  // The pending slot arrival, keyed (seq, slot 0) like a heap entry so
  // before() ranks it against the heap; time_bits == kNoArrival when none.
  Entry arrival_{kNoArrival, 0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t reallocations_ = 0;
  double now_ = 0.0;
};

}  // namespace gc
