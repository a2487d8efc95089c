// Conservative parallel DES over K cluster shards (sim/sharded.h,
// DESIGN.md §11).
//
// Execution model: the orchestrator thread owns a small EventQueue holding
// only control-plane events (ticks, record/warmup marks, delayed channel
// deliveries).  Before handling the events at barrier time t it advances
// every shard — in parallel — through all shard-local events with time <= t
// and all owned arrivals with time < t (a queue event wins a tie against an
// arrival at the same instant).  Between barriers shards never communicate,
// which is exactly the conservative-synchronization lookahead the DCP
// control structure guarantees: commands, telemetry and admission updates
// only happen at ticks.
//
// K-invariance (the determinism contract in the header) rests on three
// mechanisms, each tested by tests/test_sharded_determinism.cpp:
//   1. per-*server* RNG streams derived from (seed, global index) — never
//      per-shard or shared streams;
//   2. the frozen window assignment: arrival i maps to rank i mod m over
//      the serving set frozen at the window start, so every shard computes
//      its share of a global round-robin without seeing the other shards;
//   3. canonical reductions: every floating-point aggregate is folded from
//      per-server partials in ascending global-server-index order on the
//      orchestrator thread (integer totals commute and merge freely).
#include "sim/sharded.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "control/actuator.h"
#include "cp/lifecycle.h"
#include "obs/audit.h"
#include "obs/counters.h"
#include "obs/timeseries.h"
#include "power/power_model.h"
#include "sim/admission.h"
#include "sim/control_channel.h"
#include "sim/server.h"
#include "stats/accumulators.h"
#include "stats/log_histogram.h"
#include "stats/rng.h"
#include "util/assert.h"
#include "util/index_bitset.h"

namespace gc {
namespace {

constexpr double kInfTime = std::numeric_limits<double>::infinity();
constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControllerRecover) + 1;

// -- RNG stream derivation (DESIGN.md §11.4) --------------------------------
// Every stochastic draw belongs to a stream addressed by (base seed, global
// server index), so the sequence any one server consumes is independent of
// how the fleet is sharded.  The control-plane seeds reuse the sequential
// engine's salts; the admission salt is sharded-only (the sequential engine
// sheds from one global stream, which is inherently order-dependent).
constexpr std::uint64_t kControlSeedSalt = 0x5ca1ab1ec0ffeeULL;  // = run_simulation
constexpr std::uint64_t kFaultSeedSalt = 0xfa7a17f00dULL;        // = run_simulation
constexpr std::uint64_t kAdmitSeedSalt = 0xad317755ULL;          // sharded-only
constexpr std::uint64_t kActuatorRngStream = 14;                 // = run_simulation
constexpr std::uint64_t kAdmissionRngStream = 7;                 // = run_simulation

// Index of the first arrival in block b*m + [rank0, rank0 + width) at or
// after `i`, where m is the frozen global serving count and [rank0,
// rank0 + width) this shard's frozen rank range.  A shard's owned arrivals
// form one contiguous run per m-aligned block, so iteration is O(owned),
// not O(all arrivals).
[[nodiscard]] std::size_t first_owned_at_or_after(std::size_t i, std::size_t m,
                                                  std::size_t rank0,
                                                  std::size_t width) {
  const std::size_t block = i / m;
  const std::size_t pos = i - block * m;
  if (pos < rank0) return block * m + rank0;
  if (pos < rank0 + width) return i;
  return (block + 1) * m + rank0;
}

[[nodiscard]] std::size_t next_owned(std::size_t i, std::size_t m,
                                     std::size_t rank0, std::size_t width) {
  const std::size_t pos = i % m;
  return pos + 1 == rank0 + width ? i + m - width + 1 : i + 1;
}

// Per-server metric partials.  Floating-point members are folded in
// canonical global-index order at barriers/end-of-run; never summed into
// shard-level floats on the worker threads.
struct PerServerStats {
  // Post-warmup response aggregate.
  std::uint64_t completed = 0;
  double response_sum = 0.0;
  double response_max = 0.0;
  // Lazy time-integrals of jobs-in-system / serving / not-FAILED, advanced
  // only when the underlying signal is about to change (and at flushes).
  double anchor = 0.0;
  double jobs_integral = 0.0;
  double serving_integral = 0.0;
  double available_integral = 0.0;
  // Per-window response partials: the timeseries tick window and the
  // timeline record window (reset by their respective canonical folds).
  double window_sum = 0.0;
  std::uint64_t window_count = 0;
  double record_sum = 0.0;
  std::uint64_t record_count = 0;
};

// One logged speed command (see Shard::speed_log).
struct SpeedCommand {
  double time = 0.0;
  double speed = 1.0;
};

// One shard: a contiguous global-server-index range with its own event
// queue, servers, RNG streams, serving/live sets and accumulators.  All
// methods run either on the shard's worker (between barriers) or on the
// orchestrator thread (at barriers) — never both concurrently.
//
// Dark servers (OFF or FAILED) are not touched by speed commands: each
// command is appended to `speed_log`, and a dark server replays the
// entries it has not seen through the same Server::set_speed calls the
// eager fan-out would have made, before its next transition and before
// every energy flush.  Invariant: a dark server's meter equals what
// replaying every logged command would give (DESIGN.md §11.2).
struct Shard {
  // -- static configuration ------------------------------------------------
  std::uint32_t first = 0;  // global index range [first, last)
  std::uint32_t last = 0;
  PowerModel power_model{};  // shard-local copy: stable address for Servers
  TransitionModel transition_model{};
  const Distribution* job_size = nullptr;
  const FaultOptions* faults = nullptr;  // null when fault injection is off
  double t_ref_s = 0.1;
  double boot_timeout_s = 0.0;  // resolved (option 0 -> 3x boot delay)
  bool track_window = false;    // timeseries sink attached
  bool track_record = false;    // timeline recording on

  // -- simulation state -----------------------------------------------------
  EventQueue queue;
  std::vector<Server> servers;
  std::vector<Rng> size_rng;   // per server
  std::vector<Rng> admit_rng;  // per server; sized only when admission is on
  std::vector<Rng> fault_rng;  // per server; sized only when faults are on
  std::vector<std::vector<double>> scripted_times;   // per server, ascending
  std::vector<std::vector<double>> scripted_repair;  // parallel to the above
  std::vector<std::size_t> scripted_next;
  std::vector<char> background_armed;  // one background failure chain/server

  // O(1) fleet accounting (the sharded analogue of Cluster's
  // apply_transition bookkeeping).  Both sets hold shard-local indices.
  IndexBitset serving;  // ON and not draining
  IndexBitset live;     // not OFF/FAILED: the servers speed commands touch
  unsigned booting = 0;
  unsigned powered = 0;
  unsigned failed = 0;
  std::size_t jobs = 0;

  // Frozen round-robin assignment for the current window (copy-on-dirty:
  // refreshed at a barrier only when the serving set changed).
  bool serving_dirty = true;
  std::vector<std::uint32_t> frozen;

  // Speed commands applied so far, and per server how many of them its
  // meter has seen (meaningful only while the server is dark).
  std::vector<SpeedCommand> speed_log;
  std::vector<std::uint32_t> speed_seen;

  // Commanded control state, broadcast by the orchestrator at barriers.
  unsigned target = 0;
  double commanded_speed = 1.0;
  double p_admit = 1.0;
  bool admission_on = false;
  bool measuring = false;

  // -- per-server statistics (canonical folds read these) -------------------
  std::vector<PerServerStats> stats;
  std::vector<EnergyBreakdown> warm_energy;
  std::vector<std::uint32_t> server_boots;
  std::vector<std::uint32_t> server_shutdowns;

  // -- shard integer totals (merge exactly in any order) --------------------
  std::array<std::uint64_t, kNumEventTypes> events{};
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  // whole run (the post-warmup count is per server)
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t failures = 0;
  std::uint64_t repairs = 0;
  std::uint64_t boot_timeouts = 0;
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t violations = 0;  // post-warmup per-job tail violations
  LogHistogram response_hist;    // post-warmup

  // Per-control-period window (maintained only when track_window).
  LogHistogram window_hist;
  std::uint64_t window_completed = 0;
  std::uint64_t window_violations = 0;
  std::vector<std::uint32_t> window_touched;  // global indices, unsorted
  std::vector<std::uint32_t> record_touched;

  [[nodiscard]] unsigned size() const noexcept { return last - first; }
  [[nodiscard]] Server& server(std::uint32_t gi) noexcept {
    return servers[gi - first];
  }
  [[nodiscard]] unsigned serving_count() const noexcept {
    return static_cast<unsigned>(serving.size());
  }
  [[nodiscard]] unsigned committed_count() const noexcept {
    return serving_count() + booting;
  }
  [[nodiscard]] unsigned available_count() const noexcept {
    return size() - failed;
  }

  // Advances server gi's lazy time-integrals to `now` using its *current*
  // state; must run before any mutation of that state.
  void sync_stats(double now, std::uint32_t gi) {
    PerServerStats& ps = stats[gi - first];
    const double dt = now - ps.anchor;
    if (dt <= 0.0) return;
    const Server& s = servers[gi - first];
    ps.jobs_integral += dt * static_cast<double>(s.queue_length());
    if (s.serving()) ps.serving_integral += dt;
    if (!s.failed()) ps.available_integral += dt;
    ps.anchor = now;
  }

  // Brings dark server li's speed and meter up to date with the log.  A
  // dark server has no job in service, so no departure moves.
  void catch_up_speed(std::uint32_t li) {
    Server& s = servers[li];
    for (std::size_t i = speed_seen[li]; i < speed_log.size(); ++i) {
      [[maybe_unused]] const auto eta =
          s.set_speed(speed_log[i].time, speed_log[i].speed);
      GC_DCHECK(!eta, "sharded: dark server had a job in service");
    }
    speed_seen[li] = static_cast<std::uint32_t>(speed_log.size());
  }

  // Every energy flush goes through here, so a dark meter catches up first.
  void flush_energy(double now, std::uint32_t li) {
    if (!live.contains(li)) catch_up_speed(li);
    servers[li].flush_energy(now);
  }

  // Runs a power-state mutation keeping the O(1) counters and the serving
  // and live sets in sync (the shard-side mirror of
  // Cluster::apply_transition).
  template <typename Fn>
  void transition(double now, std::uint32_t gi, Fn&& mutate) {
    const std::uint32_t li = gi - first;
    Server& s = servers[li];
    const bool was_live = live.contains(li);
    if (!was_live) catch_up_speed(li);
    sync_stats(now, gi);
    const PowerState before = s.state();
    const bool was_serving = s.serving();
    mutate(s);
    const PowerState after = s.state();
    if (before != after) {
      const bool was_powered = before != PowerState::kOff;
      const bool is_powered = after != PowerState::kOff;
      if (was_powered != is_powered) is_powered ? ++powered : --powered;
      const bool was_booting = before == PowerState::kBooting;
      const bool is_booting = after == PowerState::kBooting;
      if (was_booting != is_booting) is_booting ? ++booting : --booting;
      const bool was_failed = before == PowerState::kFailed;
      const bool is_failed = after == PowerState::kFailed;
      if (was_failed != is_failed) is_failed ? ++failed : --failed;
    }
    const bool is_serving = s.serving();
    if (was_serving != is_serving) {
      is_serving ? serving.insert(li) : serving.erase(li);
      serving_dirty = true;
    }
    const bool is_live = after != PowerState::kOff && after != PowerState::kFailed;
    if (was_live != is_live) {
      if (is_live) {
        live.insert(li);
      } else {
        live.erase(li);
        speed_seen[li] = static_cast<std::uint32_t>(speed_log.size());
      }
    }
  }

  [[nodiscard]] double sample_ttf(std::uint32_t li) {
    return -faults->mtbf_s * std::log(fault_rng[li].uniform01_open_left());
  }
  [[nodiscard]] double sample_ttr(std::uint32_t li) {
    return -faults->mttr_s * std::log(fault_rng[li].uniform01_open_left());
  }

  void boot_server(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.start_boot(now); });
    ++boots;
    ++server_boots[gi - first];
    Server& s = server(gi);
    // Boot-hang draw from the server's own fault stream (the sequential
    // engine uses one shared stream; see DESIGN.md §11.1).  Drawn only when
    // the outcome can differ from a clean boot.
    if (faults != nullptr && faults->boot_hang_prob > 0.0 &&
        fault_rng[gi - first].uniform01() < faults->boot_hang_prob) {
      s.pending_transition =
          queue.schedule(now + boot_timeout_s, EventType::kBootTimeout, gi);
    } else {
      s.pending_transition = queue.schedule(
          now + transition_model.boot_delay_s, EventType::kBootComplete, gi);
    }
  }

  void start_drain(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.set_draining(now, true); });
    maybe_begin_shutdown(now, gi);
  }

  void maybe_begin_shutdown(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kOn || !s.draining() || s.queue_length() != 0) {
      return;
    }
    transition(now, gi, [&](Server& sv) { sv.begin_shutdown(now); });
    ++shutdowns;
    ++server_shutdowns[gi - first];
    s.pending_transition = queue.schedule(
        now + transition_model.shutdown_delay_s, EventType::kShutdownComplete, gi);
  }

  void on_boot_complete(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.finish_boot(now); });
    server(gi).pending_transition = kInvalidEventId;
    // The target may have moved below gi while this boot was in flight.
    if (gi >= target) start_drain(now, gi);
  }

  void on_shutdown_complete(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.finish_shutdown(now); });
    server(gi).pending_transition = kInvalidEventId;
    if (gi < target) boot_server(now, gi);
  }

  // Fail-stop crash: cancel the server's pending events, orphan its jobs
  // (lost — the sharded model never re-dispatches across the frozen
  // assignment) and count the failure.
  void crash(double now, std::uint32_t gi, bool from_boot_timeout) {
    Server& s = server(gi);
    queue.cancel(s.pending_departure);
    s.pending_departure = kInvalidEventId;
    queue.cancel(s.pending_transition);
    s.pending_transition = kInvalidEventId;
    std::vector<Job> orphans;
    transition(now, gi, [&](Server& sv) { orphans = sv.fail(now); });
    jobs -= orphans.size();
    lost += orphans.size();
    ++failures;
    if (from_boot_timeout) ++boot_timeouts;
  }

  void on_fail_event(double now, std::uint32_t gi) {
    const std::uint32_t li = gi - first;
    // Scripted kServerFail events carry their exact scripted time; matched
    // FIFO per server against the background failure chain.
    bool scripted = false;
    double repair_after = 0.0;
    if (scripted_next[li] < scripted_times[li].size() &&
        scripted_times[li][scripted_next[li]] == now) {
      scripted = true;
      repair_after = scripted_repair[li][scripted_next[li]];
      ++scripted_next[li];
    } else {
      background_armed[li] = 0;
    }
    const PowerState st = server(gi).state();
    const bool can_crash = st == PowerState::kBooting || st == PowerState::kOn ||
                           st == PowerState::kShuttingDown;
    if (scripted) {
      if (!can_crash) return;  // already OFF/FAILED: the script misses
      crash(now, gi, /*from_boot_timeout=*/false);
      if (std::isfinite(repair_after)) {
        queue.schedule(now + repair_after, EventType::kServerRepair, gi);
      }
      return;
    }
    if (!can_crash) {
      // Unpowered when the clock fired: restart the background clock.
      queue.schedule(now + sample_ttf(li), EventType::kServerFail, gi);
      background_armed[li] = 1;
      return;
    }
    crash(now, gi, /*from_boot_timeout=*/false);
    queue.schedule(now + sample_ttr(li), EventType::kServerRepair, gi);
  }

  void on_repair_event(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kFailed) return;
    transition(now, gi, [&](Server& sv) { sv.finish_repair(now); });
    ++repairs;
    const std::uint32_t li = gi - first;
    if (faults != nullptr && faults->mtbf_s > 0.0 && !background_armed[li]) {
      queue.schedule(now + sample_ttf(li), EventType::kServerFail, gi);
      background_armed[li] = 1;
    }
    if (gi < target) boot_server(now, gi);
  }

  void on_boot_timeout(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kBooting) return;
    s.pending_transition = kInvalidEventId;  // this event
    crash(now, gi, /*from_boot_timeout=*/true);
    queue.schedule(now + sample_ttr(gi - first), EventType::kServerRepair, gi);
  }

  // Reconciles towards the committed prefix [0, new_target) in ascending
  // global-index order (deterministic): boots OFF servers below the
  // target and revives draining ones, then drains the serving ones at or
  // above it.  Cost O(target + drained), not O(shard size).
  void reconcile(double now, unsigned new_target) {
    target = new_target;
    const std::uint32_t split = std::clamp<std::uint32_t>(target, first, last);
    for (std::uint32_t gi = first; gi < split; ++gi) {
      Server& s = server(gi);
      if (s.state() == PowerState::kOff) {
        boot_server(now, gi);
      } else if (s.state() == PowerState::kOn && s.draining()) {
        transition(now, gi, [&](Server& sv) { sv.set_draining(now, false); });
      }
      // BOOTING / SHUTTING_DOWN / FAILED catch up from their completion
      // events; an ON serving server is already where it should be.
    }
    serving.for_each_from(split - first, [&](std::size_t li) {
      start_drain(now, first + static_cast<std::uint32_t>(li));
    });
  }

  // Applies a speed command to the live servers in ascending order and
  // logs it for the dark ones.  Every server already runs at the
  // commanded speed (dark ones once caught up), so repeating it is a no-op.
  void set_speed_all(double now, double speed) {
    if (speed == commanded_speed) return;
    commanded_speed = speed;
    speed_log.push_back(SpeedCommand{now, speed});
    live.for_each([&](std::size_t li) {
      Server& s = servers[li];
      const auto eta = s.set_speed(now, speed);
      if (eta) {
        queue.cancel(s.pending_departure);
        s.pending_departure = queue.schedule(
            *eta, EventType::kDeparture, first + static_cast<std::uint32_t>(li));
      }
    });
  }

  void on_arrival(double now, std::size_t index, std::size_t window_m,
                  std::size_t rank0) {
    ++events[static_cast<std::size_t>(EventType::kArrival)];
    const std::uint32_t gi =
        frozen[static_cast<std::size_t>(index % window_m) - rank0];
    const std::uint32_t li = gi - first;
    if (admission_on && p_admit < 1.0) {
      // Shed draw from the assigned server's admission stream; drawn only
      // when the outcome is in doubt (p == 1 admits draw-free).
      if (admit_rng[li].uniform01() >= p_admit) {
        ++shed;
        return;
      }
    }
    ++admitted;
    Server& s = servers[li];
    if (!s.serving()) {
      // Frozen assignments outlive mid-window crashes/drains; arrivals to a
      // server that stopped serving are dropped, mirroring a stale routing
      // table.
      ++dropped;
      return;
    }
    sync_stats(now, gi);
    Job job;
    job.id = static_cast<std::uint64_t>(index);
    job.arrival_time = now;
    job.size = job.remaining = job_size->sample(size_rng[li]);
    ++jobs;
    const auto eta = s.enqueue(now, job);
    if (eta) {
      s.pending_departure = queue.schedule(*eta, EventType::kDeparture, gi);
    }
  }

  void on_departure(double now, std::uint32_t gi) {
    Server& s = server(gi);
    sync_stats(now, gi);
    const auto completion = s.complete_current(now);
    s.pending_departure =
        completion.next_eta
            ? queue.schedule(*completion.next_eta, EventType::kDeparture, gi)
            : kInvalidEventId;
    --jobs;
    ++completed;
    const double response = now - completion.finished.arrival_time;
    if (measuring) {
      PerServerStats& ps = stats[gi - first];
      ++ps.completed;
      ps.response_sum += response;
      if (response > ps.response_max) ps.response_max = response;
      if (response > t_ref_s) ++violations;
      response_hist.add(response);
      if (track_window) {
        window_hist.add(response);
        ++window_completed;
        if (response > t_ref_s) ++window_violations;
        if (ps.window_count == 0) window_touched.push_back(gi);
        ps.window_sum += response;
        ++ps.window_count;
      }
      if (track_record) {
        if (ps.record_count == 0) record_touched.push_back(gi);
        ps.record_sum += response;
        ++ps.record_count;
      }
    }
    if (!completion.next_eta) maybe_begin_shutdown(now, gi);
  }

  void dispatch(const Event& event) {
    ++events[static_cast<std::size_t>(event.type)];
    switch (event.type) {
      case EventType::kDeparture: on_departure(event.time, event.subject); break;
      case EventType::kBootComplete:
        on_boot_complete(event.time, event.subject);
        break;
      case EventType::kShutdownComplete:
        on_shutdown_complete(event.time, event.subject);
        break;
      case EventType::kServerFail: on_fail_event(event.time, event.subject); break;
      case EventType::kServerRepair:
        on_repair_event(event.time, event.subject);
        break;
      case EventType::kBootTimeout:
        on_boot_timeout(event.time, event.subject);
        break;
      default: GC_CHECK(false, "sharded: unexpected shard-local event type");
    }
  }

  // Advances the shard through one lookahead window: every queued event
  // with time <= barrier and every owned arrival in [lo, hi) — arrival
  // times are < barrier by construction.  A queue event at an arrival's
  // exact time runs first.
  void advance_to(double barrier, const std::vector<double>& arrivals,
                  std::size_t lo, std::size_t hi, std::size_t window_m,
                  std::size_t rank0) {
    const std::size_t width = frozen.size();
    std::size_t next_arrival = hi;
    if (window_m > 0 && width > 0 && lo < hi) {
      next_arrival = first_owned_at_or_after(lo, window_m, rank0, width);
    }
    for (;;) {
      const double ta = next_arrival < hi ? arrivals[next_arrival] : kInfTime;
      const double tq = queue.empty() ? kInfTime : queue.next_time();
      if (tq <= ta && tq <= barrier) {
        const auto event = queue.pop();
        dispatch(*event);
        continue;
      }
      if (next_arrival < hi) {
        on_arrival(arrivals[next_arrival], next_arrival, window_m, rank0);
        next_arrival = next_owned(next_arrival, window_m, rank0, width);
        continue;
      }
      break;
    }
  }

  // Warmup barrier: flush and snapshot energy, zero the time-integrals, and
  // start recording response statistics.
  void begin_measuring(double now) {
    for (std::uint32_t gi = first; gi < last; ++gi) {
      sync_stats(now, gi);
      const std::uint32_t li = gi - first;
      flush_energy(now, li);
      const Server& s = servers[li];
      warm_energy[li] =
          EnergyBreakdown{s.meter().joules_busy(), s.meter().joules_idle(),
                          s.meter().joules_transition(), s.meter().joules_off()};
      PerServerStats& ps = stats[li];
      ps.anchor = now;
      ps.jobs_integral = 0.0;
      ps.serving_integral = 0.0;
      ps.available_integral = 0.0;
    }
    measuring = true;
  }

  void finalize(double now) {
    for (std::uint32_t gi = first; gi < last; ++gi) {
      sync_stats(now, gi);
      flush_energy(now, gi - first);
    }
  }
};

struct TelemetrySnapshot {
  double sample_time = 0.0;
  double rate = 0.0;
  unsigned serving = 0;
  unsigned committed = 0;
  unsigned powered = 0;
  unsigned available = 0;
  std::uint64_t jobs = 0;
};

struct AckMessage {
  CommandKind kind = CommandKind::kTarget;
  std::uint64_t gen = 0;
};

}  // namespace

SimResult run_sharded_simulation(const Trace& trace, const Distribution& job_size,
                                 std::uint64_t workload_seed,
                                 const ClusterOptions& cluster,
                                 Controller& controller,
                                 const SimulationOptions& options,
                                 const ShardedOptions& sharded) {
  // -- validation -----------------------------------------------------------
  GC_CHECK(cluster.num_servers > 0, "sharded: cluster must have servers");
  GC_CHECK(cluster.groups.empty(),
           "sharded: heterogeneous server groups are sequential-only");
  GC_CHECK(!options.controller_faults.enabled(),
           "sharded: controller outages are sequential-only");
  GC_CHECK(sharded.num_shards >= 1, "sharded: num_shards must be >= 1");
  if (options.faults.enabled()) options.faults.validate();
  options.admission.validate();
  options.channel.validate();
  options.actuator.validate();

  const unsigned num_servers = cluster.num_servers;
  const unsigned num_shards = std::min(sharded.num_shards, num_servers);
  if (sharded.profile != nullptr) {
    sharded.profile->shard_busy_s.assign(num_shards, 0.0);
    sharded.profile->barrier_wall_s = 0.0;
    sharded.profile->barriers = 0;
  }
  ThreadPool& pool = sharded.pool != nullptr ? *sharded.pool : global_pool();
  const std::vector<double>& arrivals = trace.timestamps();

  const double t_short = controller.short_period_s();
  const double t_long = controller.long_period_s();
  GC_CHECK(t_short > 0.0 && t_long > 0.0,
           "sharded: controller periods must be positive");

  const std::uint64_t control_seed = cluster.dispatch_seed ^ kControlSeedSalt;
  const std::uint64_t fault_seed = options.faults.seed != 0
                                       ? options.faults.seed
                                       : cluster.dispatch_seed ^ kFaultSeedSalt;
  ControlChannel channel(options.channel, control_seed);
  CommandActuator actuator(options.actuator,
                           Rng(control_seed, kActuatorRngStream));
  // Causal lifecycle tracker (cp/lifecycle.h).  Every transition it records
  // happens on the orchestrator thread between barriers, so its histograms
  // and counters are deterministic and K-invariant — the shard-determinism
  // suite's counters equality across K covers them.
  LifecycleTracker lifecycle;
  lifecycle.set_expect_acks(actuator.enabled());
  lifecycle.set_expect_applies(true);
  // The orchestrator instance only computes the admit probability; the
  // per-arrival draws happen shard-side from per-server streams.
  AdmissionController admission(options.admission, options.t_ref_s,
                                Rng(cluster.dispatch_seed, kAdmissionRngStream));

  const unsigned initial_active = std::min(cluster.initial_active, num_servers);

  // -- shard construction ---------------------------------------------------
  // Contiguous ranges: the first (num_servers % K) shards get one extra.
  const unsigned shard_base = num_servers / num_shards;
  const unsigned shard_extra = num_servers % num_shards;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);
  {
    std::uint32_t next_first = 0;
    for (unsigned k = 0; k < num_shards; ++k) {
      auto shard = std::make_unique<Shard>();
      Shard& s = *shard;
      s.first = next_first;
      s.last = next_first + shard_base + (k < shard_extra ? 1 : 0);
      next_first = s.last;
      s.power_model = PowerModel(cluster.power);
      s.transition_model = cluster.transition;
      s.job_size = &job_size;
      s.t_ref_s = options.t_ref_s;
      s.track_window = options.timeseries != nullptr;
      s.track_record = options.record_interval_s > 0.0;
      s.target = initial_active;
      s.commanded_speed = cluster.initial_speed;
      s.admission_on = options.admission.enabled;
      s.measuring = options.warmup_s <= 0.0;
      if (options.expected_events_hint > 0) {
        s.queue.reserve(options.expected_events_hint / num_shards + 1);
      }
      const unsigned count = s.size();
      s.servers.reserve(count);
      s.size_rng.reserve(count);
      s.stats.resize(count);
      s.warm_energy.resize(count);
      s.serving.assign(count);
      s.live.assign(count);
      s.speed_seen.assign(count, 0);
      s.server_boots.assign(count, 0);
      s.server_shutdowns.assign(count, 0);
      for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
        const bool initially_on = gi < initial_active;
        s.servers.emplace_back(gi, &s.power_model, cluster.initial_speed,
                               initially_on, 0.0);
        s.size_rng.emplace_back(workload_seed, gi);
        if (initially_on) {
          s.serving.insert(gi - s.first);
          s.live.insert(gi - s.first);
          ++s.powered;
        }
      }
      if (options.admission.enabled) {
        s.admit_rng.reserve(count);
        for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
          s.admit_rng.emplace_back(workload_seed ^ kAdmitSeedSalt, gi);
        }
      }
      if (options.faults.enabled()) {
        s.faults = &options.faults;
        s.boot_timeout_s = options.faults.boot_timeout_s > 0.0
                               ? options.faults.boot_timeout_s
                               : 3.0 * cluster.transition.boot_delay_s;
        s.fault_rng.reserve(count);
        for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
          s.fault_rng.emplace_back(fault_seed, gi);
        }
        s.scripted_times.resize(count);
        s.scripted_repair.resize(count);
        s.scripted_next.assign(count, 0);
        s.background_armed.assign(count, 0);
        for (const ScriptedFault& f : options.faults.script) {
          if (f.server >= s.first && f.server < s.last) {
            s.scripted_times[f.server - s.first].push_back(f.time);
            s.scripted_repair[f.server - s.first].push_back(f.repair_after_s);
          }
        }
        for (std::uint32_t li = 0; li < count; ++li) {
          // Keep (time, repair) pairs sorted by time so the FIFO match at
          // on_fail_event sees them in firing order.
          auto& times = s.scripted_times[li];
          auto& reps = s.scripted_repair[li];
          std::vector<std::size_t> order(times.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return times[a] < times[b];
          });
          std::vector<double> st(times.size()), sr(times.size());
          for (std::size_t i = 0; i < order.size(); ++i) {
            st[i] = times[order[i]];
            sr[i] = reps[order[i]];
          }
          times = std::move(st);
          reps = std::move(sr);
          for (const double t : times) {
            s.queue.schedule(t, EventType::kServerFail, s.first + li);
          }
          if (options.faults.mtbf_s > 0.0) {
            s.queue.schedule(s.sample_ttf(li), EventType::kServerFail,
                             s.first + li);
            s.background_armed[li] = 1;
          }
        }
      }
      shards.push_back(std::move(shard));
    }
  }

  auto parallel_shards = [&](const std::function<void(std::size_t)>& body) {
    if (num_shards == 1) {
      body(0);
    } else {
      pool.parallel_for_index(num_shards, body);
    }
  };

  // Maps a global server index to its owning shard (contiguous ranges).
  auto shard_of = [&](std::uint32_t gi) -> Shard& {
    const std::uint32_t boundary = shard_extra * (shard_base + 1);
    const std::uint32_t k = gi < boundary
                                ? gi / (shard_base + 1)
                                : shard_extra + (gi - boundary) / shard_base;
    return *shards[k];
  };

  // -- fleet totals (O(K) integer sums; K-invariant) ------------------------
  auto serving_total = [&] {
    unsigned n = 0;
    for (const auto& s : shards) n += s->serving_count();
    return n;
  };
  auto committed_total = [&] {
    unsigned n = 0;
    for (const auto& s : shards) n += s->committed_count();
    return n;
  };
  auto powered_total = [&] {
    unsigned n = 0;
    for (const auto& s : shards) n += s->powered;
    return n;
  };
  auto available_total = [&] {
    unsigned n = 0;
    for (const auto& s : shards) n += s->available_count();
    return n;
  };
  auto jobs_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->jobs;
    return n;
  };
  auto fold_power = [&] {
    // Canonical order: shards are contiguous ascending ranges, so this is
    // the global-server-index fold.
    double watts = 0.0;
    for (const auto& s : shards) {
      for (const Server& server : s->servers) watts += server.instantaneous_power();
    }
    return watts;
  };

  // -- orchestrator state ---------------------------------------------------
  EventQueue orchestrator;
  std::array<std::uint64_t, kNumEventTypes> orchestrator_events{};
  SlotStore<TelemetrySnapshot> telemetry_store;
  SlotStore<Command> command_store;
  SlotStore<AckMessage> ack_store;

  double now = 0.0;
  std::size_t cursor = 0;  // arrivals consumed (times strictly < now)
  // Arrivals landing in a window with an empty global serving set are
  // dropped at the orchestrator (no per-server stream exists to charge).
  std::uint64_t orphaned_arrivals = 0;

  std::size_t window_m = 0;
  std::vector<std::size_t> window_rank0(num_shards, 0);

  // Advances every shard to `barrier` behind a freshly frozen assignment.
  auto advance_barrier = [&](double barrier) {
    if (barrier <= now) return;
    std::size_t rank = 0;
    for (unsigned k = 0; k < num_shards; ++k) {
      Shard& s = *shards[k];
      if (s.serving_dirty) {
        s.frozen.clear();
        s.frozen.reserve(s.serving.size());
        s.serving.for_each([&](std::size_t li) {
          s.frozen.push_back(s.first + static_cast<std::uint32_t>(li));
        });
        s.serving_dirty = false;
      }
      window_rank0[k] = rank;
      rank += s.frozen.size();
    }
    window_m = rank;
    const std::size_t lo = cursor;
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(arrivals.begin() + static_cast<std::ptrdiff_t>(lo),
                         arrivals.end(), barrier) -
        arrivals.begin());
    if (window_m == 0) orphaned_arrivals += hi - lo;
    const std::size_t arrivals_hi = window_m == 0 ? lo : hi;
    if (ShardProfile* prof = sharded.profile; prof != nullptr) {
      // Self-profiled path: per-shard busy time is read inside the worker
      // (each shard writes its own slot — no contention), the wall reading
      // brackets the whole fan-out-to-last-completion span.  Wall-clock
      // readings never feed the simulation or SimResult.
      using clock = std::chrono::steady_clock;
      const auto wall0 = clock::now();
      parallel_shards([&](std::size_t k) {
        const auto t0 = clock::now();
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m,
                              window_rank0[k]);
        prof->shard_busy_s[k] +=
            std::chrono::duration<double>(clock::now() - t0).count();
      });
      prof->barrier_wall_s +=
          std::chrono::duration<double>(clock::now() - wall0).count();
      ++prof->barriers;
    } else {
      parallel_shards([&](std::size_t k) {
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m,
                              window_rank0[k]);
      });
    }
    cursor = hi;
    now = barrier;
  };

  // Telemetry acceptance: newest-sample-wins, reordered samples discarded.
  // Seeded from the t = 0 ground truth so a dropped first sample still
  // leaves the controller something coherent to look at.
  TelemetrySnapshot latest;
  latest.serving = serving_total();
  latest.committed = committed_total();
  latest.powered = powered_total();
  latest.available = available_total();
  std::uint64_t telemetry_stale = 0;
  auto accept_telemetry = [&](const TelemetrySnapshot& snap) {
    if (snap.sample_time >= latest.sample_time) {
      latest = snap;
    } else {
      ++telemetry_stale;
    }
  };

  // Command application: generation-deduped, fanned out to all shards.
  std::array<std::uint64_t, kNumCommandKinds> last_applied_gen{};
  unsigned commanded_target = initial_active;
  double commanded_speed = cluster.initial_speed;
  std::uint64_t command_duplicates = 0;
  TimeWeightedAccumulator speed_avg(0.0);

  // Every ack delivery funnels through here so the lifecycle tracker sees
  // the arrival before the actuator clears the lane.
  auto deliver_ack = [&](double t, CommandKind kind, std::uint64_t gen) {
    lifecycle.on_acked(t, kind, gen);
    actuator.on_ack(t, kind, gen);
  };

  auto send_ack = [&](double t, const Command& cmd) {
    if (!actuator.enabled()) return;
    if (!options.channel.enabled) {
      deliver_ack(t, cmd.kind, cmd.gen);
      return;
    }
    (void)lifecycle.next_frame_id(FrameClass::kAck);
    const auto delay = channel.ack_delay();
    if (!delay) {
      // Dropped; channel counters account for the loss, the attribution
      // matrix charges it to the lossy link.
      lifecycle.on_frame_dropped(FrameClass::kAck, DropCause::kChannel);
      return;
    }
    if (*delay == 0.0) {
      deliver_ack(t, cmd.kind, cmd.gen);
    } else {
      orchestrator.schedule(t + *delay, EventType::kAckDeliver,
                            ack_store.put(AckMessage{cmd.kind, cmd.gen}));
    }
  };

  auto apply_command = [&](double t, const Command& cmd) {
    const auto lane = static_cast<std::size_t>(cmd.kind);
    if (cmd.gen <= last_applied_gen[lane]) {
      // Reordered or retransmitted: dedup, but re-ack (the original ack may
      // have been the casualty).
      ++command_duplicates;
      send_ack(t, cmd);
      return;
    }
    last_applied_gen[lane] = cmd.gen;
    if (cmd.kind == CommandKind::kTarget) {
      const unsigned target =
          std::clamp(static_cast<unsigned>(cmd.value), 1u, num_servers);
      commanded_target = target;
      parallel_shards([&](std::size_t k) { shards[k]->reconcile(t, target); });
    } else {
      speed_avg.advance(t, commanded_speed);
      commanded_speed = cmd.value;
      parallel_shards(
          [&](std::size_t k) { shards[k]->set_speed_all(t, cmd.value); });
    }
    lifecycle.on_applied(t, cmd.kind, cmd.gen);
    send_ack(t, cmd);
  };

  auto ship_command = [&](double t, const Command& cmd) {
    if (!options.channel.enabled) {
      apply_command(t, cmd);
      return;
    }
    const auto delay = channel.command_delay();
    if (!delay) {  // dropped
      lifecycle.on_command_frame_dropped(t, cmd, DropCause::kChannel);
      return;
    }
    if (*delay == 0.0) {
      apply_command(t, cmd);
    } else {
      orchestrator.schedule(t + *delay, EventType::kCommandDeliver,
                            command_store.put(cmd));
    }
  };

  // -- observability state --------------------------------------------------
  std::vector<TimelinePoint> timeline;
  bool measuring = options.warmup_s <= 0.0;
  double measure_start = 0.0;
  double local_rate = 0.0;
  double last_short_time = 0.0;
  std::size_t last_short_cursor = 0;
  double last_record_time = 0.0;
  std::size_t last_record_cursor = 0;
  std::uint64_t ticks_total = 0;
  std::uint64_t infeasible_total = 0;
  double reliab_avail_sum = 0.0;
  double reliab_spares_sum = 0.0;
  std::uint64_t reliab_plan_ticks = 0;
  double ts_target_sticky = static_cast<double>(initial_active);
  double ts_spares_sticky = 0.0;
  double ts_avail_sticky = 0.0;
  double ts_energy = 0.0;
  double ts_last_power = 0.0;
  double ts_last_time = 0.0;
  bool ts_have_sample = false;
  struct WarmSnapshot {
    std::uint64_t admitted = 0, shed = 0, dropped = 0, lost = 0;
    std::uint64_t failures = 0, repairs = 0, boot_timeouts = 0;
    std::uint64_t boots = 0, shutdowns = 0;
    std::uint64_t ticks = 0, infeasible = 0;
  } warm;
  struct TsPrev {
    std::uint64_t admitted = 0, shed = 0;
    std::uint64_t telemetry_dropped = 0, commands_dropped = 0, acks_dropped = 0;
    std::uint64_t retries = 0, duplicates = 0;
    std::uint64_t boots = 0, shutdowns = 0;
  } ts_prev;

  auto admitted_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->admitted;
    return n + orphaned_arrivals;
  };
  auto shed_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->shed;
    return n;
  };
  auto dropped_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->dropped;
    return n + orphaned_arrivals;
  };
  auto boots_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->boots;
    return n;
  };
  auto shutdowns_total = [&] {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s->shutdowns;
    return n;
  };

  const WearModel wear(options.reliability);

  std::vector<std::uint32_t> touched_scratch;
  LogHistogram window_hist_merged;

  // Fold + reset the per-tick response window across shards.  The mean is
  // folded from per-server sums in ascending global-index order.
  struct WindowStats {
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;
    double mean = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  auto take_window = [&]() -> WindowStats {
    WindowStats w;
    window_hist_merged.clear();
    touched_scratch.clear();
    for (const auto& s : shards) {
      w.completed += s->window_completed;
      w.violations += s->window_violations;
      window_hist_merged.merge(s->window_hist);
      touched_scratch.insert(touched_scratch.end(), s->window_touched.begin(),
                             s->window_touched.end());
      s->window_hist.clear();
      s->window_completed = 0;
      s->window_violations = 0;
      s->window_touched.clear();
    }
    std::sort(touched_scratch.begin(), touched_scratch.end());
    double sum = 0.0;
    for (const std::uint32_t gi : touched_scratch) {
      Shard& s = shard_of(gi);
      PerServerStats& ps = s.stats[gi - s.first];
      sum += ps.window_sum;
      ps.window_sum = 0.0;
      ps.window_count = 0;
    }
    if (w.completed > 0) {
      w.mean = sum / static_cast<double>(w.completed);
      w.p95 = window_hist_merged.quantile(0.95);
      w.p99 = window_hist_merged.quantile(0.99);
    }
    return w;
  };

  auto take_record_window = [&]() -> double {
    touched_scratch.clear();
    for (const auto& s : shards) {
      touched_scratch.insert(touched_scratch.end(), s->record_touched.begin(),
                             s->record_touched.end());
      s->record_touched.clear();
    }
    std::sort(touched_scratch.begin(), touched_scratch.end());
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const std::uint32_t gi : touched_scratch) {
      Shard& s = shard_of(gi);
      PerServerStats& ps = s.stats[gi - s.first];
      sum += ps.record_sum;
      count += ps.record_count;
      ps.record_sum = 0.0;
      ps.record_count = 0;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };

  // -- control tick ---------------------------------------------------------
  std::vector<Command> retransmit_buffer;
  auto handle_tick = [&](double t, bool long_tick) {
    // The rate is measured at the fleet (ground truth) and *shipped* to
    // the controller.  Long ticks sample the partial short window without
    // resetting it (same as the sequential loop).
    const double elapsed = t - last_short_time;
    local_rate = elapsed > 0.0
                     ? static_cast<double>(cursor - last_short_cursor) / elapsed
                     : 0.0;
    if (!long_tick) {
      last_short_time = t;
      last_short_cursor = cursor;
    }
    TelemetrySnapshot snap;
    snap.sample_time = t;
    snap.rate = local_rate;
    snap.serving = serving_total();
    snap.committed = committed_total();
    snap.powered = powered_total();
    snap.available = available_total();
    snap.jobs = jobs_total();
    if (!options.channel.enabled) {
      latest = snap;
    } else {
      (void)lifecycle.next_frame_id(FrameClass::kTelemetry);
      if (const auto delay = channel.telemetry_delay()) {
        if (*delay == 0.0) {
          accept_telemetry(snap);
        } else {
          orchestrator.schedule(t + *delay, EventType::kTelemetryDeliver,
                                telemetry_store.put(snap));
        }
      } else {
        lifecycle.on_frame_dropped(FrameClass::kTelemetry, DropCause::kChannel);
      }
    }

    ControlContext ctx;
    ctx.now = t;
    ctx.measured_rate = latest.rate;
    ctx.serving = latest.serving;
    ctx.committed = latest.committed;
    ctx.powered = latest.powered;
    ctx.available = latest.available;
    ctx.jobs_in_system = latest.jobs;
    ctx.obs_age_s = t - latest.sample_time;
    ctx.safe_mode = false;
    if (actuator.enabled()) {
      if (const auto v = actuator.acked_value(CommandKind::kTarget)) {
        ctx.acked_target = static_cast<unsigned>(*v);
      }
      if (const auto v = actuator.acked_value(CommandKind::kSpeed)) {
        ctx.acked_speed = *v;
      }
    }

    const ControlAction action =
        long_tick ? controller.on_long_tick(ctx) : controller.on_short_tick(ctx);
    if (action.active_target) {
      ts_target_sticky = static_cast<double>(*action.active_target);
      const Command cmd =
          actuator.issue(t, CommandKind::kTarget,
                         static_cast<double>(*action.active_target), 0);
      lifecycle.on_issued(t, cmd, ctx.obs_age_s);
      ship_command(t, cmd);
    }
    if (action.speed) {
      const Command cmd = actuator.issue(t, CommandKind::kSpeed, *action.speed, 0);
      lifecycle.on_issued(t, cmd, ctx.obs_age_s);
      ship_command(t, cmd);
    }
    if (actuator.enabled()) {
      retransmit_buffer.clear();
      actuator.poll(t, retransmit_buffer);
      for (const Command& cmd : retransmit_buffer) {
        lifecycle.on_retransmit(t, cmd);
        ship_command(t, cmd);
      }
      // A lane with nothing outstanding whose newest tracked command never
      // got an ack just reconciled (retry budget exhausted).
      for (int k = 0; k < kNumCommandKinds; ++k) {
        const auto kind = static_cast<CommandKind>(k);
        if (!actuator.outstanding(kind)) lifecycle.on_lane_reconciled(t, kind);
      }
    }
    ++ticks_total;
    if (action.infeasible) ++infeasible_total;
    if (action.explain.solved_spares >= 0) {
      ts_spares_sticky = action.explain.solved_spares;
      ts_avail_sticky = action.explain.availability_est;
      if (long_tick) {
        // Fresh reliability plan (short ticks only re-report it).
        ++reliab_plan_ticks;
        reliab_spares_sum += action.explain.solved_spares;
        reliab_avail_sum += action.explain.availability_est;
      }
    }
    if (admission.enabled()) {
      // Admission is fleet-local (data plane): it protects the SLA from
      // the true local rate and the post-command fleet state.
      admission.update(local_rate, serving_total(), commanded_speed);
      const double p = admission.admit_probability();
      for (const auto& s : shards) s->p_admit = p;
    }
    const double p_admit = admission.enabled() ? admission.admit_probability() : 1.0;

    if (options.timeseries != nullptr) {
      TimeSeriesSample sample;
      sample.time = t;
      sample.long_tick = long_tick;
      sample.measured = measuring;
      sample.observed_rate = ctx.measured_rate;
      sample.local_rate = local_rate;
      sample.predicted_rate = action.explain.predicted_rate;
      sample.planning_rate = action.explain.planning_rate;
      sample.target_m = ts_target_sticky;
      sample.serving = serving_total();
      sample.committed = committed_total();
      sample.powered = powered_total();
      sample.available = available_total();
      sample.speed = commanded_speed;
      sample.power_w = fold_power();
      if (ts_have_sample) ts_energy += ts_last_power * (t - ts_last_time);
      ts_last_power = sample.power_w;
      ts_last_time = t;
      ts_have_sample = true;
      sample.energy_j = ts_energy;
      sample.queue_depth = jobs_total();
      const WindowStats window = take_window();
      sample.window_completed = window.completed;
      sample.window_mean_response_s = window.mean;
      sample.window_p95_response_s = window.p95;
      sample.window_p99_response_s = window.p99;
      sample.window_violation_fraction =
          window.completed > 0
              ? static_cast<double>(window.violations) /
                    static_cast<double>(window.completed)
              : 0.0;
      sample.window_violated =
          window.completed > 0 && window.mean > options.t_ref_s;
      const std::uint64_t admitted_now = admitted_total();
      const std::uint64_t shed_now = shed_total();
      sample.d_admitted = admitted_now - ts_prev.admitted;
      sample.d_shed = shed_now - ts_prev.shed;
      ts_prev.admitted = admitted_now;
      ts_prev.shed = shed_now;
      sample.admit_probability = p_admit;
      sample.obs_age_s = ctx.obs_age_s;
      sample.safe_mode = false;
      sample.infeasible = action.infeasible;
      const std::uint64_t tele_drop = channel.telemetry_counters().dropped;
      const std::uint64_t cmd_drop = channel.command_counters().dropped;
      const std::uint64_t ack_drop = channel.ack_counters().dropped;
      sample.d_telemetry_dropped = tele_drop - ts_prev.telemetry_dropped;
      sample.d_commands_dropped = cmd_drop - ts_prev.commands_dropped;
      sample.d_acks_dropped = ack_drop - ts_prev.acks_dropped;
      sample.d_command_retries = actuator.retries() - ts_prev.retries;
      sample.d_command_duplicates = command_duplicates - ts_prev.duplicates;
      ts_prev.telemetry_dropped = tele_drop;
      ts_prev.commands_dropped = cmd_drop;
      ts_prev.acks_dropped = ack_drop;
      ts_prev.retries = actuator.retries();
      ts_prev.duplicates = command_duplicates;
      sample.d_ticks_missed = 0;
      const std::uint64_t boots_now = boots_total();
      const std::uint64_t shutdowns_now = shutdowns_total();
      sample.d_boots = boots_now - ts_prev.boots;
      sample.d_shutdowns = shutdowns_now - ts_prev.shutdowns;
      ts_prev.boots = boots_now;
      ts_prev.shutdowns = shutdowns_now;
      sample.solved_spares = ts_spares_sticky;
      sample.availability_est = ts_avail_sticky;
      if (wear.enabled()) {
        double wear_sum = 0.0;
        for (const auto& s : shards) {
          for (std::uint32_t li = 0; li < s->size(); ++li) {
            wear_sum += wear.wear_fraction(s->server_boots[li],
                                           s->server_shutdowns[li]);
          }
        }
        sample.wear_fraction = wear_sum / static_cast<double>(num_servers);
      }
      options.timeseries->append(sample);
    }

    if (options.audit != nullptr) {
      AuditRecord record;
      record.time_s = t;
      record.long_tick = long_tick;
      record.observed_rate = ctx.measured_rate;
      record.serving = ctx.serving;
      record.committed = ctx.committed;
      record.powered = ctx.powered;
      record.available = ctx.available;
      record.jobs_in_system = ctx.jobs_in_system;
      record.predicted_rate = action.explain.predicted_rate;
      record.planning_rate = action.explain.planning_rate;
      record.safety_margin = action.explain.safety_margin;
      record.planned_servers = action.explain.planned_servers;
      record.detected_available = action.explain.detected_available;
      record.target_set = action.active_target.has_value();
      if (action.active_target) {
        record.target_servers = *action.active_target;
        record.delta_servers = static_cast<int>(*action.active_target) -
                               static_cast<int>(ctx.committed);
      }
      record.speed_set = action.speed.has_value();
      if (action.speed) record.speed = *action.speed;
      record.infeasible = action.infeasible;
      record.admit_probability = p_admit;
      record.obs_age_s = ctx.obs_age_s;
      record.safe_mode = false;
      record.solved_spares = action.explain.solved_spares;
      record.availability_est = action.explain.availability_est;
      record.binding_constraint = action.explain.binding_constraint;
      options.audit->append(record);
    }

    orchestrator.schedule(t + (long_tick ? t_long : t_short),
                          long_tick ? EventType::kLongTick : EventType::kShortTick,
                          0);
  };

  auto handle_record = [&](double t) {
    TimelinePoint point;
    point.time = t;
    const double elapsed = t - last_record_time;
    point.arrival_rate =
        elapsed > 0.0
            ? static_cast<double>(cursor - last_record_cursor) / elapsed
            : 0.0;
    last_record_time = t;
    last_record_cursor = cursor;
    point.serving = serving_total();
    point.powered = powered_total();
    point.available = available_total();
    point.speed = commanded_speed;
    point.power_watts = fold_power();
    point.jobs_in_system = static_cast<double>(jobs_total());
    point.window_mean_response_s = take_record_window();
    point.admit_probability =
        admission.enabled() ? admission.admit_probability() : 1.0;
    timeline.push_back(point);
    orchestrator.schedule(t + options.record_interval_s, EventType::kRecord, 0);
  };

  // -- initial schedule -----------------------------------------------------
  // Long before short at t = 0: at coincident ticks the long (VOVF)
  // decision wins the tie, and because T_long >= T_short the rescheduling
  // order preserves that at every later coincidence.
  orchestrator.schedule(0.0, EventType::kLongTick, 0);
  orchestrator.schedule(0.0, EventType::kShortTick, 0);
  if (options.record_interval_s > 0.0) {
    orchestrator.schedule(options.record_interval_s, EventType::kRecord, 0);
  }
  if (options.warmup_s > 0.0) {
    orchestrator.schedule(options.warmup_s, EventType::kWarmupEnd, 0);
  }

  // -- main barrier loop ----------------------------------------------------
  double end_time;
  for (;;) {
    const auto event = orchestrator.pop();
    GC_CHECK(event.has_value(), "sharded: orchestrator queue drained");
    const double t = event->time;
    if (options.hard_stop_s > 0.0 && t > options.hard_stop_s) {
      advance_barrier(options.hard_stop_s);
      end_time = options.hard_stop_s;
      break;
    }
    advance_barrier(t);
    ++orchestrator_events[static_cast<std::size_t>(event->type)];
    bool done = false;
    switch (event->type) {
      case EventType::kShortTick:
      case EventType::kLongTick:
        handle_tick(t, event->type == EventType::kLongTick);
        done = cursor == arrivals.size() && jobs_total() == 0;
        break;
      case EventType::kRecord: handle_record(t); break;
      case EventType::kWarmupEnd: {
        parallel_shards([&](std::size_t k) { shards[k]->begin_measuring(t); });
        measuring = true;
        measure_start = t;
        warm.admitted = admitted_total();
        warm.shed = shed_total();
        warm.dropped = dropped_total();
        warm.boots = boots_total();
        warm.shutdowns = shutdowns_total();
        for (const auto& s : shards) {
          warm.lost += s->lost;
          warm.failures += s->failures;
          warm.repairs += s->repairs;
          warm.boot_timeouts += s->boot_timeouts;
        }
        warm.ticks = ticks_total;
        warm.infeasible = infeasible_total;
        speed_avg.advance(t, commanded_speed);
        speed_avg = TimeWeightedAccumulator(t);
        break;
      }
      case EventType::kTelemetryDeliver:
        accept_telemetry(telemetry_store.take(event->subject));
        break;
      case EventType::kCommandDeliver:
        apply_command(t, command_store.take(event->subject));
        break;
      case EventType::kAckDeliver: {
        const AckMessage ack = ack_store.take(event->subject);
        deliver_ack(t, ack.kind, ack.gen);
        break;
      }
      default: GC_CHECK(false, "sharded: unexpected orchestrator event type");
    }
    if (done) {
      end_time = t;
      break;
    }
  }

  parallel_shards([&](std::size_t k) { shards[k]->finalize(end_time); });
  lifecycle.finalize_all(end_time);
  speed_avg.advance(end_time, commanded_speed);
  if (!measuring) measure_start = end_time;
  const double sim_time = end_time - measure_start;

  // -- canonical fold into SimResult ---------------------------------------
  SimResult result;
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  double response_sum = 0.0;
  double response_max = 0.0;
  double jobs_integral = 0.0;
  double serving_integral = 0.0;
  double available_integral = 0.0;
  EnergyBreakdown energy;
  LogHistogram response_hist;
  result.server_cycles.resize(num_servers);
  double wear_sum = 0.0;
  for (const auto& sp : shards) {
    const Shard& s = *sp;
    violations += s.violations;
    response_hist.merge(s.response_hist);
    for (std::uint32_t li = 0; li < s.size(); ++li) {
      const PerServerStats& ps = s.stats[li];
      completed += ps.completed;
      response_sum += ps.response_sum;
      if (ps.response_max > response_max) response_max = ps.response_max;
      jobs_integral += ps.jobs_integral;
      serving_integral += ps.serving_integral;
      available_integral += ps.available_integral;
      const EnergyMeter& meter = s.servers[li].meter();
      energy.busy_j += meter.joules_busy() - s.warm_energy[li].busy_j;
      energy.idle_j += meter.joules_idle() - s.warm_energy[li].idle_j;
      energy.transition_j +=
          meter.joules_transition() - s.warm_energy[li].transition_j;
      energy.off_j += meter.joules_off() - s.warm_energy[li].off_j;
      result.server_cycles[s.first + li] =
          s.server_boots[li] + s.server_shutdowns[li];
      const double frac =
          wear.wear_fraction(s.server_boots[li], s.server_shutdowns[li]);
      wear_sum += frac;
      if (frac > result.wear_fraction_max) result.wear_fraction_max = frac;
    }
  }

  result.completed_jobs = completed;
  result.dropped_jobs = dropped_total() - warm.dropped;
  result.shed_jobs = shed_total() - warm.shed;
  std::uint64_t lost_whole = 0, failures_whole = 0, repairs_whole = 0,
                boot_timeouts_whole = 0;
  for (const auto& s : shards) {
    lost_whole += s->lost;
    failures_whole += s->failures;
    repairs_whole += s->repairs;
    boot_timeouts_whole += s->boot_timeouts;
  }
  result.failures = failures_whole - warm.failures;
  result.repairs = repairs_whole - warm.repairs;
  result.boot_timeouts = boot_timeouts_whole - warm.boot_timeouts;
  result.jobs_redispatched = 0;  // the sharded model drops, never re-routes
  result.jobs_lost = lost_whole - warm.lost;
  result.sim_time_s = sim_time;
  result.mean_response_s =
      completed > 0 ? response_sum / static_cast<double>(completed) : 0.0;
  result.p95_response_s = completed > 0 ? response_hist.quantile(0.95) : 0.0;
  result.p99_response_s = completed > 0 ? response_hist.quantile(0.99) : 0.0;
  result.max_response_s = response_max;
  result.job_violation_ratio =
      completed > 0 ? static_cast<double>(violations) /
                          static_cast<double>(completed)
                    : 0.0;
  {
    std::uint64_t windows = 0, violated = 0;
    for (const TimelinePoint& p : timeline) {
      if (p.time <= measure_start) continue;
      ++windows;
      if (p.window_mean_response_s > options.t_ref_s) ++violated;
    }
    result.window_violation_ratio =
        windows > 0
            ? static_cast<double>(violated) / static_cast<double>(windows)
            : 0.0;
  }
  result.energy = energy;
  result.mean_power_w = sim_time > 0.0 ? energy.total_j() / sim_time : 0.0;
  result.boots = boots_total() - warm.boots;
  result.shutdowns = shutdowns_total() - warm.shutdowns;
  result.mean_serving = sim_time > 0.0 ? serving_integral / sim_time : 0.0;
  result.mean_speed = speed_avg.time_average();
  result.mean_jobs_in_system = sim_time > 0.0 ? jobs_integral / sim_time : 0.0;
  result.mean_available = sim_time > 0.0 ? available_integral / sim_time : 0.0;
  result.unavailability =
      sim_time > 0.0
          ? 1.0 - result.mean_available / static_cast<double>(num_servers)
          : 0.0;
  {
    const std::uint64_t shed_delta = result.shed_jobs;
    const std::uint64_t offered = (admitted_total() - warm.admitted) + shed_delta;
    result.shed_ratio =
        offered > 0
            ? static_cast<double>(shed_delta) / static_cast<double>(offered)
            : 0.0;
  }
  result.infeasible_ticks = infeasible_total - warm.infeasible;
  const std::uint64_t measured_ticks = ticks_total - warm.ticks;
  result.infeasible_ratio =
      measured_ticks > 0 ? static_cast<double>(result.infeasible_ticks) /
                               static_cast<double>(measured_ticks)
                         : 0.0;
  result.telemetry_dropped = channel.telemetry_counters().dropped;
  result.commands_dropped = channel.command_counters().dropped;
  result.acks_dropped = channel.ack_counters().dropped;
  result.command_retries = actuator.retries();
  result.command_duplicates = command_duplicates;
  result.commands_exhausted = actuator.exhausted();
  result.wear_fraction_mean =
      num_servers > 0 ? wear_sum / static_cast<double>(num_servers) : 0.0;
  if (reliab_plan_ticks > 0) {
    result.availability_estimate =
        reliab_avail_sum / static_cast<double>(reliab_plan_ticks);
    result.mean_solved_spares =
        reliab_spares_sum / static_cast<double>(reliab_plan_ticks);
  }
  result.response_hist = std::move(response_hist);
  result.lifecycle_ack_hist = lifecycle.ack_latency();
  result.lifecycle_apply_hist = lifecycle.apply_latency();
  result.lifecycle_e2e_hist = lifecycle.e2e_latency();
  result.lifecycle_obs_age_hist = lifecycle.obs_age();
  result.command_lifecycles = lifecycle.records();
  result.timeline = std::move(timeline);

  // -- counters registry (names mirror run_simulation) ----------------------
  MetricRegistry registry;
  for (std::size_t type = 0; type < kNumEventTypes; ++type) {
    std::uint64_t count = orchestrator_events[type];
    for (const auto& s : shards) count += s->events[type];
    if (type == static_cast<std::size_t>(EventType::kArrival)) {
      count += orphaned_arrivals;
    }
    registry
        .counter(std::string("sim.events.") +
                 to_string(static_cast<EventType>(type)))
        .inc(count);
  }
  registry.counter("sim.jobs.admitted").inc(admitted_total());
  registry.counter("sim.jobs.shed").inc(shed_total());
  {
    std::uint64_t completed_whole = 0;
    for (const auto& s : shards) completed_whole += s->completed;
    registry.counter("sim.jobs.completed").inc(completed_whole);
  }
  registry.counter("sim.jobs.dropped").inc(dropped_total());
  registry.counter("sim.jobs.redispatched").inc(0);
  registry.counter("sim.jobs.lost").inc(lost_whole);
  registry.counter("cluster.boots").inc(boots_total());
  registry.counter("cluster.shutdowns").inc(shutdowns_total());
  registry.counter("cluster.failures").inc(failures_whole);
  registry.counter("cluster.repairs").inc(repairs_whole);
  registry.counter("cluster.boot_timeouts").inc(boot_timeouts_whole);
  registry.counter("control.ticks").inc(ticks_total);
  registry.counter("control.infeasible_ticks").inc(infeasible_total);
  registry.gauge("sim.time_s").set(end_time);
  registry.counter("sharded.num_shards").inc(num_shards);
  {
    std::uint64_t shard_events = 0, reallocations = 0;
    for (const auto& s : shards) {
      shard_events += s->queue.scheduled_total();
      reallocations += s->queue.reallocations();
    }
    registry.counter("sharded.shard_events_scheduled").inc(shard_events);
    registry.counter("sharded.queue_reallocations").inc(reallocations);
  }
  if (options.channel.enabled) {
    registry.counter("chan.telemetry.sent").inc(channel.telemetry_counters().sent);
    registry.counter("chan.telemetry.dropped").inc(result.telemetry_dropped);
    registry.counter("chan.telemetry.stale_discarded").inc(telemetry_stale);
    registry.counter("chan.command.sent").inc(channel.command_counters().sent);
    registry.counter("chan.command.dropped").inc(result.commands_dropped);
    registry.counter("chan.ack.sent").inc(channel.ack_counters().sent);
    registry.counter("chan.ack.dropped").inc(result.acks_dropped);
  }
  if (options.actuator.enabled) {
    registry.counter("act.retries").inc(actuator.retries());
    registry.counter("act.acked").inc(actuator.acked());
    registry.counter("act.stale_acks").inc(actuator.stale_acks());
    registry.counter("act.exhausted").inc(actuator.exhausted());
    registry.counter("act.duplicates").inc(command_duplicates);
    registry.counter("act.rejected_era").inc(0);
  }
  if (options.audit != nullptr) {
    registry.counter("obs.audit.records").inc(options.audit->size());
  }
  if (options.timeseries != nullptr) {
    registry.counter("obs.timeseries.periods").inc(options.timeseries->periods());
    registry.counter("obs.timeseries.rows").inc(options.timeseries->size());
  }
  registry.counter("fleet.boot_count").inc(boots_total());
  registry.counter("fleet.shutdown_count").inc(shutdowns_total());
  if (options.reliability.enabled() || reliab_plan_ticks > 0) {
    registry.gauge("fleet.wear_fraction_mean").set(result.wear_fraction_mean);
    registry.gauge("fleet.wear_fraction_max").set(result.wear_fraction_max);
    registry.gauge("fleet.availability_observed").set(1.0 - result.unavailability);
    if (reliab_plan_ticks > 0) {
      registry.gauge("reliability.availability_estimate")
          .set(result.availability_estimate);
      registry.gauge("reliability.solved_spares_mean")
          .set(result.mean_solved_spares);
    }
  }
  result.counters = registry.snapshot();
  // Lifecycle tracker counters (cp.lifecycle.*, cp.drop.*): every
  // transition was recorded on the orchestrator thread between barriers,
  // so these are identical across K — the shard-determinism suite's
  // counters equality holds with them merged in.
  {
    CountersSnapshot lc;
    lifecycle.counters_into(lc);
    for (const auto& [name, value] : lc.counters) {
      result.counters.add_counter(name, value);
    }
    for (const auto& [name, value] : lc.gauges) {
      result.counters.add_gauge(name, value);
    }
  }
  return result;
}

}  // namespace gc
