// One fleet's server lifecycle: the VOVF state machine's bookkeeping both
// simulation engines share (DESIGN.md §6.2, §11.2).
//
// A FleetStore owns a vector of Servers, addressed by position `li` (the
// global index for the sequential Cluster, the shard-local index for a
// sharded Shard; Server::index() keeps the global one), and keeps exact
// across every lifecycle step:
//
//   * the powered / booting / failed counts, the `serving` set (ON and not
//     draining) and the `live` set (not OFF/FAILED: the servers a speed
//     command touches), as IndexBitsets;
//   * the per-server and total transition counters (FleetTotals);
//   * the dense `watts` column: watts(li) == server(li).instantaneous_power()
//     bit for bit after every mutation, so a power fold streams one column
//     instead of whole Server objects (DESIGN.md §11.5);
//   * the speed log: speed commands reach the live servers eagerly and are
//     logged for the dark ones, which replay what they missed through the
//     same Server::set_speed calls before their next transition and before
//     every energy flush.  A dark server's meter therefore equals what the
//     eager fan-out would have produced; only server(li).speed() and its
//     meter lag until then;
//   * each server's pending departure and boot/shutdown event on the
//     caller's EventQueue, subject = li.
//
// Round-robin and random dispatch pick by position, so the store also keeps
// an ascending list of the serving positions, rebuilt lazily: the sequential
// dispatcher refreshes it on the first pick after a transition, and a shard
// refreshes it only at barriers, so it stays frozen across a window.
//
// What to do (who boots, who drains, where orphans go) is the engine's
// policy; the store only carries each decision out.
//
// Invariant (tests/test_cluster_property.cpp, after every step of a random
// walk with crashes, repairs and hung boots): the counts, the refreshed
// serving list and the watts column equal a full scan of the servers.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "power/power_model.h"
#include "sim/event_queue.h"
#include "sim/job.h"
#include "sim/server.h"
#include "util/assert.h"
#include "util/index_bitset.h"

namespace gc {

class MetricRegistry;
struct SimResult;

struct EnergyBreakdown {
  double busy_j = 0.0;
  double idle_j = 0.0;
  double transition_j = 0.0;
  double off_j = 0.0;
  [[nodiscard]] double total_j() const noexcept {
    return busy_j + idle_j + transition_j + off_j;
  }
};

// Integer run totals.  They merge exactly in any order, so the sharded
// engine sums its shards', and either engine's warmup snapshot is one copy.
struct FleetTotals {
  std::uint64_t admitted = 0;      // past admission control: routed or dropped
  std::uint64_t shed = 0;          // rejected by admission control
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;       // admitted, but no serving server took it
  std::uint64_t redispatched = 0;  // crash survivors moved to another server
  std::uint64_t lost = 0;          // destroyed by a crash
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t failures = 0;      // fail-stop crashes, boot timeouts included
  std::uint64_t repairs = 0;
  std::uint64_t boot_timeouts = 0;

  FleetTotals& operator+=(const FleetTotals& other) noexcept;
};

// Fills `result`'s lifecycle fields with the measured deltas (whole run
// minus the warmup snapshot) and registers the whole-run sim.jobs.* and
// cluster.* counters.  Both engines end through it.
void report_fleet_totals(const FleetTotals& whole, const FleetTotals& warm,
                         SimResult& result, MetricRegistry& registry);

class FleetStore {
 public:
  // `queue` must outlive the store.  `size` servers are then add()ed in
  // position order.  `speed` is the commanded speed every server starts at
  // (NaN when they start at different speeds: the first command then
  // reaches all of them).
  FleetStore(EventQueue& queue, const TransitionModel& transition, std::uint32_t size,
             double speed);
  FleetStore(const FleetStore&) = delete;
  FleetStore& operator=(const FleetStore&) = delete;

  // Appends the server at position size(), ON (serving) or OFF.  `power`
  // must outlive the store.
  void add(std::uint32_t index, const PowerModel* power, double speed, bool on,
           double rate_scale = 1.0);

  // -- counts (O(1)) ---------------------------------------------------------
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(servers_.size());
  }
  [[nodiscard]] unsigned serving_count() const noexcept {
    return static_cast<unsigned>(serving_.size());
  }
  // Serving + booting: the capacity already committed.
  [[nodiscard]] unsigned committed_count() const noexcept {
    return serving_count() + booting_;
  }
  // Anything not OFF (a FAILED machine is not off).
  [[nodiscard]] unsigned powered_count() const noexcept { return powered_; }
  [[nodiscard]] unsigned failed_count() const noexcept { return failed_; }
  // Anything not FAILED.
  [[nodiscard]] unsigned available_count() const noexcept { return size() - failed_; }
  [[nodiscard]] std::size_t jobs_in_system() const noexcept { return jobs_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }
  [[nodiscard]] double boot_delay_s() const noexcept { return transition_.boot_delay_s; }

  [[nodiscard]] const Server& server(std::uint32_t li) const { return servers_[li]; }
  [[nodiscard]] std::span<const Server> servers() const noexcept { return servers_; }
  [[nodiscard]] const IndexBitset& serving() const noexcept { return serving_; }
  // Rebuilds the ascending serving list if a transition changed the
  // serving set since the last rebuild; returns whether it did.  Inline:
  // the sequential dispatcher checks it on every pick.
  bool refresh_serving_list() {
    if (!serving_list_stale_) return false;
    rebuild_serving_list();
    return true;
  }
  // The serving list as of the last refresh.
  [[nodiscard]] std::span<const std::uint32_t> serving_list() const noexcept {
    return serving_list_;
  }

  // Inline: the sharded power fold reads every server's entry per tick.
  [[nodiscard]] double watts(std::uint32_t li) const {
    GC_DCHECK(std::bit_cast<std::uint64_t>(watts_[li]) ==
                  std::bit_cast<std::uint64_t>(servers_[li].instantaneous_power()),
              "FleetStore: watts column diverged from the server meters");
    return watts_[li];
  }
  // Fleet draw: the watts column folded in ascending position order.
  [[nodiscard]] double power_w() const;

  [[nodiscard]] const FleetTotals& totals() const noexcept { return totals_; }
  // Engine-side tallies (admitted, shed, dropped, redispatched, lost).
  [[nodiscard]] FleetTotals& totals() noexcept { return totals_; }
  // Per-server boot and shutdown counts: each is half an on/off cycle
  // charged against that server's wear budget (core/reliability.h).
  [[nodiscard]] std::span<const std::uint32_t> server_boots() const noexcept {
    return server_boots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> server_shutdowns() const noexcept {
    return server_shutdowns_;
  }

  // -- lifecycle ---------------------------------------------------------------
  // OFF -> BOOTING.  Completes after the boot delay, or, when `hang_s` is
  // set, gets a kBootTimeout that many seconds later instead.
  void boot(double now, std::uint32_t li, std::optional<double> hang_s);
  void finish_boot(double now, std::uint32_t li);
  // Draining ON -> serving again.
  void revive(double now, std::uint32_t li);
  // Serving -> draining, and straight into shutdown when idle.  Returns
  // whether the shutdown began.
  bool drain(double now, std::uint32_t li);
  void finish_shutdown(double now, std::uint32_t li);
  // Fail-stop crash of a powered server: cancels its pending events and
  // returns its jobs (in service order), which leave jobs_in_system().
  [[nodiscard]] std::vector<Job> fail(double now, std::uint32_t li);
  // The BOOTING server's kBootTimeout fired: it fails.
  void time_out_boot(double now, std::uint32_t li);
  // FAILED -> OFF.
  void finish_repair(double now, std::uint32_t li);

  // -- data plane (inline: one call per arrival and per departure) ---------
  // Accepts a job on a serving server, scheduling its departure if it went
  // straight into service.
  void enqueue(double now, std::uint32_t li, const Job& job) {
    Server& s = servers_[li];
    const auto eta = s.enqueue(now, job);
    ++jobs_;
    // The meter moves only when the server goes idle -> busy (an ETA).
    if (eta) {
      watts_[li] = s.instantaneous_power();
      reschedule_departure(li, *eta);
    }
  }
  // The server's kDeparture fired: returns the finished job.  Starts the
  // next one, or begins the shutdown of a drained server.
  [[nodiscard]] Job depart(double now, std::uint32_t li) {
    Server& s = servers_[li];
    s.pending_departure = kInvalidEventId;
    const Server::Completion completion = s.complete_current(now);
    GC_CHECK(jobs_ > 0, "departure with no jobs in system");
    --jobs_;
    ++totals_.completed;
    if (completion.next_eta) {
      s.pending_departure =
          queue_.schedule(*completion.next_eta, EventType::kDeparture, li);
    } else {
      // ... and back only when it goes idle.
      watts_[li] = s.instantaneous_power();
      maybe_begin_shutdown(now, li);
    }
    return completion.finished;
  }
  // Runs the fleet at `speed` (in (0, 1]); in-flight departures move.
  void set_speed_all(double now, double speed);

  // -- energy ----------------------------------------------------------------
  void flush_energy(double now, std::uint32_t li);
  void flush_energy(double now);
  // Meter totals folded in ascending position order (after flush_energy).
  [[nodiscard]] EnergyBreakdown energy() const;

 private:
  // Runs one power-state mutation and keeps the counts, sets and watts
  // column in step with it.
  template <typename Fn>
  void transition(std::uint32_t li, Fn&& mutate);
  // A draining, empty ON server begins its shutdown; returns whether it did.
  bool maybe_begin_shutdown(double now, std::uint32_t li);
  void rebuild_serving_list();
  // Replays the speed commands dark server li missed.
  void catch_up_speed(std::uint32_t li);
  void reschedule_departure(std::uint32_t li, double eta) {
    Server& s = servers_[li];
    if (s.pending_departure != kInvalidEventId) queue_.cancel(s.pending_departure);
    s.pending_departure = queue_.schedule(eta, EventType::kDeparture, li);
  }

  struct SpeedCommand {
    double time = 0.0;
    double speed = 1.0;
  };

  EventQueue& queue_;  // non-owning
  TransitionModel transition_;
  std::vector<Server> servers_;
  std::vector<double> watts_;
  IndexBitset serving_;
  IndexBitset live_;
  std::vector<std::uint32_t> serving_list_;
  bool serving_list_stale_ = true;
  unsigned booting_ = 0;
  unsigned powered_ = 0;
  unsigned failed_ = 0;
  std::size_t jobs_ = 0;
  double speed_;
  std::vector<SpeedCommand> speed_log_;
  // Per server: how many logged commands its meter has seen (meaningful
  // only while it is dark).
  std::vector<std::uint32_t> speed_seen_;
  std::vector<std::uint32_t> server_boots_;
  std::vector<std::uint32_t> server_shutdowns_;
  FleetTotals totals_;
};

}  // namespace gc
