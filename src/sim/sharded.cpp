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
//      the serving set frozen at the window start; each shard holds its
//      serving servers with their *global* ranks, so it walks its share of
//      one global round-robin without seeing the other shards;
//   3. canonical reductions: every floating-point aggregate is folded from
//      per-server partials in ascending global-server-index order on the
//      orchestrator thread (integer totals commute and merge freely).
//
// Ownership is strided (ShardLayout): shard k owns gi ≡ k (mod K).  DCP
// commits a prefix [0, target) of the fleet, so contiguous ranges would put
// a consolidated fleet's whole serving set on shard 0; strides spread any
// prefix evenly over every shard (DESIGN.md §11.2).
//
// A shard's servers live in a FleetStore (sim/fleet_store.h) and its faults
// come from a FaultInjector (sim/fault_injector.h), the lifecycle store and
// fault plane the sequential engine uses too; this file adds only the
// sharded model around them.
#include "sim/sharded.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "power/power_model.h"
#include "sim/admission.h"
#include "sim/control_loop.h"
#include "sim/fault_injector.h"
#include "sim/fleet_store.h"
#include "sim/server.h"
#include "stats/accumulators.h"
#include "stats/log_histogram.h"
#include "stats/rng.h"
#include "util/assert.h"

namespace gc {
namespace {

constexpr double kInfTime = std::numeric_limits<double>::infinity();
constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControllerRecover) + 1;

// -- RNG stream derivation (DESIGN.md §11.4) --------------------------------
// Every stochastic draw belongs to a stream addressed by (base seed, global
// server index), so the sequence any one server consumes is independent of
// how the fleet is sharded.  The control-plane and fault seeds are the
// shared ones (sim/control_loop.h); the admission salt is sharded-only (the
// sequential engine sheds from one global stream, which is inherently
// order-dependent).
constexpr std::uint64_t kAdmitSeedSalt = 0xad317755ULL;

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

// One shard: the servers gi = li * K + k (li < count) as one FleetStore
// over its own event queue and one FaultInjector over the same positions,
// plus what only the sharded model has: prefix reconcile, per-server RNG
// streams, what a crash means here, the window walk over the frozen
// round-robin list, and the per-server stat integrals.  Everything
// shard-side — the store, the per-server vectors and the subject of every
// shard-queue event — is keyed by the local index li.  All methods run
// either on the shard's worker (between barriers) or on the orchestrator
// thread (at barriers) — never both concurrently.
//
// Each handler syncs server li's stat integrals before the store mutates
// it; a second sync at the same instant is a no-op.
struct Shard {
  Shard(const ShardLayout& layout_, std::uint32_t k_, const ClusterOptions& cluster)
      : layout(layout_),
        k(k_),
        count(layout_.owned(k_)),
        power_model(cluster.power),
        store(queue, power_model, cluster.transition, count, cluster.initial_speed) {}

  // -- static configuration ------------------------------------------------
  ShardLayout layout;
  std::uint32_t k;      // owns gi ≡ k (mod K)
  std::uint32_t count;  // owned servers: layout.owned(k)
  PowerModel power_model;  // shard-local copy: stable address for Servers
  const Distribution* job_size = nullptr;
  double t_ref_s = 0.1;
  bool track_window = false;    // timeseries sink attached
  bool track_record = false;    // timeline recording on

  // -- simulation state -----------------------------------------------------
  EventQueue queue;
  FleetStore store;
  std::vector<Rng> size_rng;   // per server
  std::vector<Rng> admit_rng;  // per server; sized only when admission is on
  std::optional<FaultInjector> faults;  // only when fault injection is on

  // Global round-robin ranks of the frozen serving list (the store's,
  // refreshed only at barriers), from the orchestrator's merge.
  std::vector<std::uint32_t> rank;

  // Commanded control state, broadcast by the orchestrator at barriers.
  // `target_split` is the owned part of the committed prefix [0, target):
  // local indices li < target_split.
  std::uint32_t target_split = 0;
  double p_admit = 1.0;
  bool admission_on = false;
  bool measuring = false;

  // -- per-server statistics (canonical folds read these) -------------------
  std::vector<PerServerStats> stats;
  std::vector<EnergyBreakdown> warm_energy;

  // -- shard integer totals (merge exactly in any order) --------------------
  std::array<std::uint64_t, kNumEventTypes> events{};
  std::uint64_t violations = 0;  // post-warmup per-job tail violations
  LogHistogram response_hist;    // post-warmup

  // Per-control-period window (maintained only when track_window).
  LogHistogram window_hist;
  std::uint64_t window_completed = 0;
  std::uint64_t window_violations = 0;
  std::vector<std::uint32_t> window_touched;  // global indices, unsorted
  std::vector<std::uint32_t> record_touched;

  [[nodiscard]] std::uint32_t global(std::uint32_t li) const noexcept {
    return layout.global_of(k, li);
  }

  // Advances server li's lazy time-integrals to `now` using its *current*
  // state; must run before any mutation of that state.
  void sync_stats(double now, std::uint32_t li) {
    PerServerStats& ps = stats[li];
    const double dt = now - ps.anchor;
    if (dt <= 0.0) return;
    const Server& s = store.server(li);
    ps.jobs_integral += dt * static_cast<double>(s.queue_length());
    if (s.serving()) ps.serving_integral += dt;
    if (!s.failed()) ps.available_integral += dt;
    ps.anchor = now;
  }

  void boot_server(double now, std::uint32_t li) {
    sync_stats(now, li);
    // Boot-hang draw from the server's own fault stream (the sequential
    // engine uses one shared stream; see DESIGN.md §11.1).
    store.boot(now, li,
               faults ? faults->sample_boot_hang(li, store.boot_delay_s()) : std::nullopt);
  }

  void start_drain(double now, std::uint32_t li) {
    sync_stats(now, li);
    store.drain(now, li);
  }

  void on_boot_complete(double now, std::uint32_t li) {
    sync_stats(now, li);
    store.finish_boot(now, li);
    // The target may have moved below this server while it booted.
    if (li >= target_split) start_drain(now, li);
  }

  void on_shutdown_complete(double now, std::uint32_t li) {
    sync_stats(now, li);
    store.finish_shutdown(now, li);
    if (li < target_split) boot_server(now, li);
  }

  // -- what a fault means here (called by `faults`) --------------------------
  // Fail-stop crash of a powered server: its jobs are lost — the sharded
  // model never re-dispatches across the frozen assignment.
  bool fail_server(double now, std::uint32_t li) {
    const PowerState state = store.server(li).state();
    if (state == PowerState::kOff || state == PowerState::kFailed) return false;
    sync_stats(now, li);
    store.totals().lost += store.fail(now, li).size();
    return true;
  }

  void timeout_boot(double now, std::uint32_t li) {
    sync_stats(now, li);
    store.time_out_boot(now, li);
  }

  void repair_server(double now, std::uint32_t li) {
    sync_stats(now, li);
    store.finish_repair(now, li);
  }

  // Reconciles towards the committed prefix [0, new_target) in ascending
  // index order (deterministic): boots OFF servers below the target and
  // revives draining ones, then drains the serving ones at or above it.
  // The owned part of the prefix is li < target_split.  Cost O(owned
  // prefix + drained), not O(shard size).
  void reconcile(double now, unsigned new_target) {
    target_split = layout.owned_below(k, new_target);
    for (std::uint32_t li = 0; li < target_split; ++li) {
      const Server& s = store.server(li);
      if (s.state() == PowerState::kOff) {
        boot_server(now, li);
      } else if (s.state() == PowerState::kOn && s.draining()) {
        sync_stats(now, li);
        store.revive(now, li);
      }
      // BOOTING / SHUTTING_DOWN / FAILED catch up from their completion
      // events; an ON serving server is already where it should be.
    }
    store.serving().for_each_from(target_split, [&](std::size_t li) {
      start_drain(now, static_cast<std::uint32_t>(li));
    });
  }

  // Arrival `index` of the trace, assigned to frozen server li.
  void on_arrival(double now, std::size_t index, std::uint32_t li) {
    ++events[static_cast<std::size_t>(EventType::kArrival)];
    if (admission_on && p_admit < 1.0) {
      // Shed draw from the assigned server's admission stream; drawn only
      // when the outcome is in doubt (p == 1 admits draw-free).
      if (admit_rng[li].uniform01() >= p_admit) {
        ++store.totals().shed;
        return;
      }
    }
    ++store.totals().admitted;
    if (!store.server(li).serving()) {
      // Frozen assignments outlive mid-window crashes/drains; arrivals to a
      // server that stopped serving are dropped, mirroring a stale routing
      // table.
      ++store.totals().dropped;
      return;
    }
    sync_stats(now, li);
    Job job;
    job.id = static_cast<std::uint64_t>(index);
    job.arrival_time = now;
    job.size = job.remaining = job_size->sample(size_rng[li]);
    store.enqueue(now, li, job);
  }

  // The store starts the next job, or shuts a drained server down.
  void on_departure(double now, std::uint32_t li) {
    sync_stats(now, li);
    const double response = now - store.depart(now, li).arrival_time;
    if (measuring) {
      PerServerStats& ps = stats[li];
      ++ps.completed;
      ps.response_sum += response;
      if (response > ps.response_max) ps.response_max = response;
      if (response > t_ref_s) ++violations;
      response_hist.add(response);
      if (track_window) {
        window_hist.add(response);
        ++window_completed;
        if (response > t_ref_s) ++window_violations;
        if (ps.window_count == 0) window_touched.push_back(global(li));
        ps.window_sum += response;
        ++ps.window_count;
      }
      if (track_record) {
        if (ps.record_count == 0) record_touched.push_back(global(li));
        ps.record_sum += response;
        ++ps.record_count;
      }
    }
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
      case EventType::kServerFail:
        faults->on_fail_event(event.time, event.subject, *this, queue);
        break;
      case EventType::kServerRepair:
        faults->on_repair_event(event.time, event.subject, *this, queue);
        // A repaired server inside the committed prefix boots at once.
        if (event.subject < target_split) boot_server(event.time, event.subject);
        break;
      case EventType::kBootTimeout:
        faults->on_boot_timeout(event.time, event.subject, *this, queue);
        break;
      default: GC_CHECK(false, "sharded: unexpected shard-local event type");
    }
  }

  // Advances the shard through one lookahead window: every queued event
  // with time <= barrier and every owned arrival in [lo, hi) — arrival
  // times are < barrier by construction.  A queue event at an arrival's
  // exact time runs first.  The owned arrivals are block * m + rank[j]
  // for each m-aligned block and each frozen server j, so iteration is
  // O(owned), not O(all arrivals).
  void advance_to(double barrier, const std::vector<double>& arrivals,
                  std::size_t lo, std::size_t hi, std::size_t window_m) {
    const std::span<const std::uint32_t> frozen = store.serving_list();
    const std::size_t width = frozen.size();
    std::size_t next_arrival = hi;
    std::size_t block = 0;
    std::size_t j = 0;
    if (window_m > 0 && width > 0 && lo < hi) {
      block = lo / window_m;
      j = static_cast<std::size_t>(
          std::lower_bound(rank.begin(), rank.end(), lo - block * window_m) -
          rank.begin());
      if (j == width) {
        ++block;
        j = 0;
      }
      next_arrival = block * window_m + rank[j];
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
        on_arrival(arrivals[next_arrival], next_arrival, frozen[j]);
        if (++j == width) {
          ++block;
          j = 0;
        }
        next_arrival = block * window_m + rank[j];
        continue;
      }
      break;
    }
  }

  // Warmup barrier: flush and snapshot energy, zero the time-integrals, and
  // start recording response statistics.
  void begin_measuring(double now) {
    for (std::uint32_t li = 0; li < count; ++li) {
      sync_stats(now, li);
      store.flush_energy(now, li);
      const Server& s = store.server(li);
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
    for (std::uint32_t li = 0; li < count; ++li) {
      sync_stats(now, li);
      store.flush_energy(now, li);
    }
  }
};

// The control loop's view of the sharded fleet, read and driven on the
// orchestrator thread at barriers.  Integer totals are O(K) sums (they
// commute); every floating-point fold runs over per-server partials in
// ascending global-index order, so each reading is K-invariant.
class ShardedFleet final : public FleetView {
 public:
  ShardedFleet(std::vector<std::unique_ptr<Shard>>& shards, const ShardLayout& layout,
               ThreadPool& pool, const WearModel& wear, double initial_speed)
      : shards_(shards),
        layout_(layout),
        pool_(pool),
        wear_(wear),
        commanded_speed_(initial_speed) {}

  // Arrivals that landed in a window with an empty global serving set,
  // dropped at the orchestrator (no per-server stream exists to charge).
  std::uint64_t orphaned_arrivals = 0;
  // Time-weighted commanded speed (changes only through set_speed).
  TimeWeightedAccumulator speed_avg{0.0};

  void parallel(const std::function<void(std::size_t)>& body) {
    if (shards_.size() == 1) {
      body(0);
    } else {
      pool_.parallel_for_index(shards_.size(), body);
    }
  }

  template <typename Fn>
  [[nodiscard]] std::uint64_t total(Fn&& per_shard) const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += per_shard(*s);
    return n;
  }

  // Visits every server as (shard, local index) in ascending global-index
  // order — the canonical fold order.  Under strided ownership gi = li * K
  // + k, so that is li-major, k-minor; the first M mod K shards own one
  // server past the last full row.
  template <typename Fn>
  void for_each_canonical(Fn&& visit) const {
    const std::uint32_t rows = layout_.num_servers / layout_.num_shards;
    for (std::uint32_t li = 0; li < rows; ++li) {
      for (const auto& s : shards_) visit(*s, li);
    }
    for (unsigned k = 0; k < layout_.num_servers % layout_.num_shards; ++k) {
      visit(*shards_[k], rows);
    }
  }

  unsigned num_servers() const override { return layout_.num_servers; }
  unsigned serving_count() const override {
    return static_cast<unsigned>(
        total([](const Shard& s) { return s.store.serving_count(); }));
  }
  unsigned committed_count() const override {
    return static_cast<unsigned>(
        total([](const Shard& s) { return s.store.committed_count(); }));
  }
  unsigned powered_count() const override {
    return static_cast<unsigned>(
        total([](const Shard& s) { return s.store.powered_count(); }));
  }
  unsigned available_count() const override {
    return static_cast<unsigned>(
        total([](const Shard& s) { return s.store.available_count(); }));
  }
  std::uint64_t jobs_in_system() const override {
    return total([](const Shard& s) { return s.store.jobs_in_system(); });
  }
  double speed() const override { return commanded_speed_; }
  double power_w() const override {
    double watts = 0.0;
    for_each_canonical(
        [&](const Shard& s, std::uint32_t li) { watts += s.store.watts(li); });
    return watts;
  }

  void set_target(double now, unsigned target) override {
    const unsigned clamped = std::clamp(target, 1u, layout_.num_servers);
    parallel([&](std::size_t k) { shards_[k]->reconcile(now, clamped); });
  }
  void set_speed(double now, double speed) override {
    speed_avg.advance(now, commanded_speed_);
    commanded_speed_ = speed;
    parallel([&](std::size_t k) { shards_[k]->store.set_speed_all(now, speed); });
  }

  // The shards' totals, with the orphaned arrivals admitted and dropped.
  [[nodiscard]] FleetTotals totals() const {
    FleetTotals sum;
    for (const auto& s : shards_) sum += s->store.totals();
    sum.admitted += orphaned_arrivals;
    sum.dropped += orphaned_arrivals;
    return sum;
  }
  std::uint64_t admitted() const override { return totals().admitted; }
  std::uint64_t shed() const override { return totals().shed; }

  // Folds and resets the per-tick response window across shards.  The
  // mean is folded from per-server sums in ascending global-index order.
  PeriodWindowStats take_period_window() override {
    PeriodWindowStats w;
    std::uint64_t violations = 0;
    window_hist_.clear();
    touched_.clear();
    for (const auto& s : shards_) {
      w.completed += s->window_completed;
      violations += s->window_violations;
      window_hist_.merge(s->window_hist);
      touched_.insert(touched_.end(), s->window_touched.begin(),
                      s->window_touched.end());
      s->window_hist.clear();
      s->window_completed = 0;
      s->window_violations = 0;
      s->window_touched.clear();
    }
    double sum = 0.0;
    for_each_touched([&](PerServerStats& ps) {
      sum += ps.window_sum;
      ps.window_sum = 0.0;
      ps.window_count = 0;
    });
    if (w.completed > 0) {
      const auto completed = static_cast<double>(w.completed);
      w.mean_s = sum / completed;
      w.p95_s = window_hist_.quantile(0.95);
      w.p99_s = window_hist_.quantile(0.99);
      w.violation_fraction = static_cast<double>(violations) / completed;
    }
    return w;
  }

  double take_record_mean_response() override {
    touched_.clear();
    for (const auto& s : shards_) {
      touched_.insert(touched_.end(), s->record_touched.begin(),
                      s->record_touched.end());
      s->record_touched.clear();
    }
    double sum = 0.0;
    std::uint64_t count = 0;
    for_each_touched([&](PerServerStats& ps) {
      sum += ps.record_sum;
      count += ps.record_count;
      ps.record_sum = 0.0;
      ps.record_count = 0;
    });
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  std::uint64_t boots() const override { return totals().boots; }
  std::uint64_t shutdowns() const override { return totals().shutdowns; }
  double wear_fraction() const override {
    if (!wear_.enabled()) return 0.0;
    double wear_sum = 0.0;
    for_each_canonical([&](const Shard& s, std::uint32_t li) {
      wear_sum += wear_.wear_fraction(s.store.server_boots()[li],
                                      s.store.server_shutdowns()[li]);
    });
    return wear_sum / static_cast<double>(layout_.num_servers);
  }

 private:
  // Visits the per-server stats of the servers in touched_ in ascending
  // global-index order (the canonical fold order).
  template <typename Fn>
  void for_each_touched(Fn&& visit) {
    std::sort(touched_.begin(), touched_.end());
    for (const std::uint32_t gi : touched_) {
      visit(shards_[layout_.shard_of(gi)]->stats[layout_.local_of(gi)]);
    }
  }

  std::vector<std::unique_ptr<Shard>>& shards_;
  const ShardLayout layout_;
  ThreadPool& pool_;
  const WearModel& wear_;
  double commanded_speed_;
  std::vector<std::uint32_t> touched_;  // scratch for the window folds
  LogHistogram window_hist_;
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
  GC_CHECK(sharded.num_shards >= 1, "sharded: num_shards must be >= 1");
  const unsigned num_servers = cluster.num_servers;
  options.admission.validate();

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

  const std::uint64_t faults_seed = fault_seed(options.faults, cluster.dispatch_seed);
  // The orchestrator instance only computes the admit probability; the
  // per-arrival draws happen shard-side from per-server streams.
  AdmissionController admission(options.admission, options.t_ref_s,
                                Rng(cluster.dispatch_seed, kAdmissionRngStream));

  const unsigned initial_active = std::min(cluster.initial_active, num_servers);
  // -- shard construction ---------------------------------------------------
  // Strided ownership (ShardLayout): shard k owns gi = li * K + k.
  const ShardLayout layout{num_shards, num_servers};
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);
  for (unsigned k = 0; k < num_shards; ++k) {
    auto shard = std::make_unique<Shard>(layout, k, cluster);
    Shard& s = *shard;
    s.job_size = &job_size;
    s.t_ref_s = options.t_ref_s;
    s.track_window = options.timeseries != nullptr;
    s.track_record = options.record_interval_s > 0.0;
    s.target_split = layout.owned_below(k, initial_active);
    s.admission_on = options.admission.enabled;
    s.measuring = options.warmup_s <= 0.0;
    if (options.expected_events_hint > 0) {
      s.queue.reserve(options.expected_events_hint / num_shards + 1);
    }
    const unsigned count = s.count;
    s.size_rng.reserve(count);
    s.stats.resize(count);
    s.warm_energy.resize(count);
    for (std::uint32_t li = 0; li < count; ++li) {
      const std::uint32_t gi = s.global(li);
      s.store.add(gi, cluster.initial_speed, /*on=*/li < s.target_split);
      s.size_rng.emplace_back(workload_seed, gi);
    }
    if (options.admission.enabled) {
      s.admit_rng.reserve(count);
      for (std::uint32_t li = 0; li < count; ++li) {
        s.admit_rng.emplace_back(workload_seed ^ kAdmitSeedSalt, s.global(li));
      }
    }
    if (options.faults.enabled()) {
      s.faults.emplace(options.faults, faults_seed, num_servers, num_shards, k);
      s.faults->arm(s.queue);
    }
    shards.push_back(std::move(shard));
  }

  const WearModel wear(options.reliability);
  ShardedFleet fleet(shards, layout, pool, wear, cluster.initial_speed);

  // -- orchestrator state ---------------------------------------------------
  // The orchestrator queue holds the ticks, record/warmup marks, and the
  // control loop's delayed deliveries and outage edges.
  EventQueue orchestrator;
  std::array<std::uint64_t, kNumEventTypes> orchestrator_events{};
  ControlLoop loop(controller, options, cluster.dispatch_seed, fleet, admission,
                   orchestrator);

  double now = 0.0;
  std::size_t cursor = 0;  // arrivals consumed (times strictly < now)
  std::size_t window_m = 0;
  std::vector<std::size_t> merge_pos(num_shards, 0);

  // Refreshes the frozen assignment: each shard whose serving set changed
  // re-lists its serving servers, then — if any did — one merge of the K
  // ascending lists in global-index order (li-major, k-minor) hands out the
  // global ranks.
  auto freeze_serving_sets = [&] {
    bool dirty = false;
    for (const auto& sp : shards) {
      Shard& s = *sp;
      if (!s.store.refresh_serving_list()) continue;
      dirty = true;
      s.rank.resize(s.store.serving_list().size());
    }
    if (!dirty) return;
    std::fill(merge_pos.begin(), merge_pos.end(), std::size_t{0});
    std::uint32_t rank = 0;
    for (;;) {
      std::uint32_t row = std::numeric_limits<std::uint32_t>::max();
      for (unsigned k = 0; k < num_shards; ++k) {
        const auto frozen = shards[k]->store.serving_list();
        if (merge_pos[k] < frozen.size()) row = std::min(row, frozen[merge_pos[k]]);
      }
      if (row == std::numeric_limits<std::uint32_t>::max()) break;
      for (unsigned k = 0; k < num_shards; ++k) {
        Shard& s = *shards[k];
        const auto frozen = s.store.serving_list();
        std::size_t& pos = merge_pos[k];
        if (pos < frozen.size() && frozen[pos] == row) s.rank[pos++] = rank++;
      }
    }
    window_m = rank;
  };

  // Advances every shard to `barrier` behind a freshly frozen assignment.
  auto advance_barrier = [&](double barrier) {
    if (barrier <= now) return;
    freeze_serving_sets();
    const std::size_t lo = cursor;
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(arrivals.begin() + static_cast<std::ptrdiff_t>(lo),
                         arrivals.end(), barrier) -
        arrivals.begin());
    if (window_m == 0) fleet.orphaned_arrivals += hi - lo;
    const std::size_t arrivals_hi = window_m == 0 ? lo : hi;
    if (ShardProfile* prof = sharded.profile; prof != nullptr) {
      // Self-profiled path: per-shard busy time is read inside the worker
      // (each shard writes its own slot — no contention), the wall reading
      // brackets the whole fan-out-to-last-completion span.  Wall-clock
      // readings never feed the simulation or SimResult.
      using clock = std::chrono::steady_clock;
      const auto wall0 = clock::now();
      fleet.parallel([&](std::size_t k) {
        const auto t0 = clock::now();
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m);
        prof->shard_busy_s[k] +=
            std::chrono::duration<double>(clock::now() - t0).count();
      });
      prof->barrier_wall_s +=
          std::chrono::duration<double>(clock::now() - wall0).count();
      ++prof->barriers;
    } else {
      fleet.parallel([&](std::size_t k) {
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m);
      });
    }
    cursor = hi;
    now = barrier;
  };

  bool measuring = options.warmup_s <= 0.0;
  double measure_start = 0.0;
  double last_short_time = 0.0;
  std::size_t last_short_cursor = 0;
  std::size_t last_record_cursor = 0;
  FleetTotals warm;

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
      case EventType::kLongTick: {
        // The fleet measures the arrival rate over the short window; a long
        // tick samples the partial window without resetting it.
        const bool long_tick = event->type == EventType::kLongTick;
        const double elapsed = t - last_short_time;
        const double local_rate =
            elapsed > 0.0 ? static_cast<double>(cursor - last_short_cursor) / elapsed
                          : 0.0;
        if (!long_tick) {
          last_short_time = t;
          last_short_cursor = cursor;
        }
        loop.on_tick(t, long_tick, local_rate);
        if (admission.enabled()) {
          // Broadcast the tick's admit probability to the shard-side draws.
          const double p = admission.admit_probability();
          for (const auto& s : shards) s->p_admit = p;
        }
        orchestrator.schedule(t + (long_tick ? t_long : t_short), event->type, 0);
        done = cursor == arrivals.size() && fleet.jobs_in_system() == 0;
        break;
      }
      case EventType::kRecord:
        loop.record_timeline(t, cursor - last_record_cursor);
        last_record_cursor = cursor;
        orchestrator.schedule(t + options.record_interval_s, EventType::kRecord, 0);
        break;
      case EventType::kWarmupEnd: {
        fleet.parallel([&](std::size_t k) { shards[k]->begin_measuring(t); });
        loop.begin_measuring(t);
        measuring = true;
        measure_start = t;
        warm = fleet.totals();
        fleet.speed_avg = TimeWeightedAccumulator(t);
        break;
      }
      case EventType::kTelemetryDeliver:
      case EventType::kCommandDeliver:
      case EventType::kAckDeliver:
      case EventType::kControllerFail:
      case EventType::kControllerRecover:
        loop.on_event(*event);
        break;
      default: GC_CHECK(false, "sharded: unexpected orchestrator event type");
    }
    if (done) {
      end_time = t;
      break;
    }
  }

  fleet.parallel([&](std::size_t k) { shards[k]->finalize(end_time); });
  fleet.speed_avg.advance(end_time, fleet.speed());
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
  for (const auto& s : shards) {
    violations += s->violations;
    response_hist.merge(s->response_hist);
  }
  fleet.for_each_canonical([&](const Shard& s, std::uint32_t li) {
    const PerServerStats& ps = s.stats[li];
    completed += ps.completed;
    response_sum += ps.response_sum;
    if (ps.response_max > response_max) response_max = ps.response_max;
    jobs_integral += ps.jobs_integral;
    serving_integral += ps.serving_integral;
    available_integral += ps.available_integral;
    const EnergyMeter& meter = s.store.server(li).meter();
    energy.busy_j += meter.joules_busy() - s.warm_energy[li].busy_j;
    energy.idle_j += meter.joules_idle() - s.warm_energy[li].idle_j;
    energy.transition_j += meter.joules_transition() - s.warm_energy[li].transition_j;
    energy.off_j += meter.joules_off() - s.warm_energy[li].off_j;
    const std::uint32_t boots = s.store.server_boots()[li];
    const std::uint32_t shutdowns = s.store.server_shutdowns()[li];
    result.server_cycles[s.global(li)] = boots + shutdowns;
    const double frac = wear.wear_fraction(boots, shutdowns);
    wear_sum += frac;
    if (frac > result.wear_fraction_max) result.wear_fraction_max = frac;
  });

  result.completed_jobs = completed;
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
  result.energy = energy;
  result.mean_power_w = sim_time > 0.0 ? energy.total_j() / sim_time : 0.0;
  result.mean_serving = sim_time > 0.0 ? serving_integral / sim_time : 0.0;
  result.mean_speed = fleet.speed_avg.time_average();
  result.mean_jobs_in_system = sim_time > 0.0 ? jobs_integral / sim_time : 0.0;
  result.mean_available = sim_time > 0.0 ? available_integral / sim_time : 0.0;
  result.unavailability =
      sim_time > 0.0
          ? 1.0 - result.mean_available / static_cast<double>(num_servers)
          : 0.0;
  result.wear_fraction_mean =
      num_servers > 0 ? wear_sum / static_cast<double>(num_servers) : 0.0;
  result.response_hist = std::move(response_hist);

  // -- counters registry (the control plane's part comes from the loop) ----
  MetricRegistry registry;
  for (std::size_t type = 0; type < kNumEventTypes; ++type) {
    std::uint64_t count = orchestrator_events[type];
    for (const auto& s : shards) count += s->events[type];
    if (type == static_cast<std::size_t>(EventType::kArrival)) {
      count += fleet.orphaned_arrivals;
    }
    registry
        .counter(std::string("sim.events.") +
                 to_string(static_cast<EventType>(type)))
        .inc(count);
  }
  // The sharded model drops, never re-routes: redispatched stays 0.
  report_fleet_totals(fleet.totals(), warm, result, registry);
  registry.gauge("sim.time_s").set(end_time);
  registry.counter("sharded.num_shards").inc(num_shards);
  registry.counter("sharded.shard_events_scheduled")
      .inc(fleet.total([](const Shard& s) { return s.queue.scheduled_total(); }));
  registry.counter("sharded.queue_reallocations")
      .inc(fleet.total([](const Shard& s) { return s.queue.reallocations(); }));
  loop.finish(end_time, registry, result);
  return result;
}

}  // namespace gc
