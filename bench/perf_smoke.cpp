// perf_smoke — the persisted performance trajectory of the simulator core.
//
// Runs cheap, deterministic measurements of the core and writes them to
// BENCH_core.json (overridable via argv[1]) so CI keeps a machine-readable
// record of core hot-path throughput next to every build:
//
//   * event_loop    — EventQueue churn (cancel + schedule + pop + schedule
//                     per iteration) with M pending departures,
//                     M ∈ {16, 256, 1024}; reported as queue ops/sec.
//   * solve         — Provisioner::solve ns/call over a recurring stream
//                     of measured rates (the DCP tick pattern, so the memo
//                     cache is exercised the way a simulation exercises it).
//   * solver_cache  — hit/miss counters after a fig8-style WC98 trace
//                     replay under the two DCP-family policies sharing one
//                     Provisioner: the end-to-end evidence that real
//                     control traffic re-solves repeated rates.
//   * sharded       — the K x M scaling grid of the sharded simulation
//                     core (sim/sharded.h): K ∈ {1, 2, 4, 8} shards over
//                     M ∈ {1024, 16384, 131072} servers, reported as
//                     events/sec plus speedup and parallel efficiency
//                     relative to K = 1 at the same M.  Each cell also
//                     asserts the EventQueue capacity hint held: zero
//                     queue reallocations in steady state (hard failure,
//                     not a trajectory entry).
//   * sharded_consolidated — one K=4 / M=16384 cell whose fleet starts
//                     consolidated onto a 1/16 prefix, the shape DCP
//                     commits.  Its shard imbalance is gated in CI: with
//                     strided ownership every shard owns a slice of any
//                     prefix (contiguous ranges would leave K-1 idle).
//   * dcday         — the fig8 combined-DCP replay (three compressed
//                     WC98-like days on the sequential engine, sinks off)
//                     end to end: simulated events, best-of-nine wall
//                     seconds and events/sec.
//   * sinks_overhead — the same replay with the trace, audit and
//                     time-series sinks attached and every artifact
//                     rendered to memory, over the dcday replay: the
//                     median of nine alternating on/off pairs' ratios.  A
//                     ratio of two timings on one machine, so CI gates it
//                     absolutely.
//
// Wall-clock numbers vary with the machine; the JSON is a trajectory, not
// a pass/fail gate (CI only checks that the file is produced and sane,
// and — on machines whose committed baseline demonstrates parallel
// speedup — that the K=4 / M=16384 sharded speedup does not regress; the
// machine-independent imbalance and sinks_overhead ratios are gated
// absolutely).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "control/policies.h"
#include "core/provisioner.h"
#include "cp/lifecycle.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "stats/rng.h"
#include "util/csv.h"
#include "util/format.h"
#include "workload/rate_profile.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// 4 queue ops per iteration: cancel one of M pending departures, schedule
// its replacement, pop the head, schedule the popped subject's successor.
double event_loop_ops_per_sec(unsigned m, long iters) {
  gc::EventQueue queue;
  gc::Rng rng(42);
  std::vector<gc::EventId> pending(m);
  for (unsigned i = 0; i < m; ++i) {
    pending[i] = queue.schedule(rng.uniform01() * 10.0, gc::EventType::kDeparture, i);
  }
  const auto start = Clock::now();
  for (long it = 0; it < iters; ++it) {
    const auto pick = static_cast<unsigned>(rng.uniform_below(m));
    queue.cancel(pending[pick]);
    pending[pick] = queue.schedule(queue.now() + rng.uniform01() * 10.0,
                                   gc::EventType::kDeparture, pick);
    const auto event = queue.pop();
    pending[event->subject] = queue.schedule(
        queue.now() + rng.uniform01() * 10.0, gc::EventType::kDeparture,
        event->subject);
  }
  return static_cast<double>(iters) * 4.0 / seconds_since(start);
}

double best_of(int reps, unsigned m, long iters) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    best = std::max(best, event_loop_ops_per_sec(m, iters));
  }
  return best;
}

// solve() ns/call over the DCP tick pattern: a recurring set of measured
// rates, so the run mixes cold scans with memo-cache hits exactly as a
// simulation does.
double solve_ns_per_call(const gc::Provisioner& solver, long iters) {
  const double max_rate = solver.config().max_feasible_arrival_rate();
  std::vector<double> rates;
  for (int i = 0; i < 64; ++i) {
    rates.push_back(max_rate * static_cast<double>(i) / 80.0);
  }
  double sink = 0.0;
  const auto start = Clock::now();
  for (long it = 0; it < iters; ++it) {
    sink += solver.solve(rates[static_cast<std::size_t>(it) % rates.size()]).speed;
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(iters);
  // Defeat dead-code elimination without benchmark:: helpers.
  if (sink < 0.0) std::fprintf(stderr, "%f", sink);
  return ns;
}

// solve_reliable() ns/call over the same tick pattern, with the availability
// target and wear cost live so every cold call runs the full
// base-count × spare-count scan.  The cache makes the steady state cheap;
// the baseline entry keeps the cold-scan cost from regressing unnoticed.
double solve_reliable_ns_per_call(const gc::Provisioner& solver, long iters) {
  gc::ReliabilityOptions reliability;
  reliability.mtbf_s = 7200.0;
  reliability.mttr_s = 180.0;
  reliability.availability_target = 0.99;
  reliability.max_spares = 6;
  reliability.cycles_to_failure = 2000.0;
  reliability.cycle_cost_j = 10000.0;
  const gc::ClusterConfig& config = solver.config();
  const double max_rate = config.max_feasible_arrival_rate();
  std::vector<double> rates;
  for (int i = 0; i < 64; ++i) {
    rates.push_back(max_rate * static_cast<double>(i) / 80.0);
  }
  double sink = 0.0;
  const auto start = Clock::now();
  for (long it = 0; it < iters; ++it) {
    sink += solver
                .solve_reliable(rates[static_cast<std::size_t>(it) % rates.size()],
                                config.max_servers,
                                /*m_committed=*/config.max_servers / 2,
                                /*horizon_s=*/25.0, reliability)
                .base.speed;
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(iters);
  if (sink < 0.0) std::fprintf(stderr, "%f", sink);
  return ns;
}

// fig8's arrivals: three compressed WC98-like days at 70% of the feasible
// peak, synthesized from fixed seeds.
gc::Trace fig8_trace(const gc::ClusterConfig& config) {
  const double day_s = 2400.0;
  const auto profile = gc::make_wc98_like_profile(
      0.7 * config.max_feasible_arrival_rate(), /*days=*/3.0, /*seed=*/13, day_s);
  return gc::Trace::from_profile(*profile, 3.0 * day_s, /*seed=*/13);
}

// fig8's fleet: every server of the config, all active at the start.
gc::ClusterOptions fig8_cluster(const gc::ClusterConfig& config) {
  gc::ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  return cluster;
}

// The fig8 workload — three compressed WC98-like days — replayed under
// combined DCP and then failure-aware DCP, both sharing ONE Provisioner.
// Both runs see the identical arrival trace on the identical tick grid,
// and both DCP variants query the solver with raw measured rates (a job
// count over a fixed period — a discrete, recurring set of keys), so the
// second run re-queries keys the first already solved: the cross-run
// reuse the memo cache is built for, plus days 2-3 revisiting day-1-like
// load levels within each run.  (DVFS-only would be a poor cache witness:
// its EWMA-smoothed rate estimate is a fresh continuous value every tick,
// so nearly every query is a distinct key.)
gc::SolverCacheStats trace_replay_cache_stats() {
  const gc::ClusterConfig config = gc::bench_cluster_config();
  const gc::Trace trace = fig8_trace(config);
  const gc::Provisioner solver(config);
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  const gc::PolicyKind kinds[2] = {gc::PolicyKind::kCombinedDcp,
                                   gc::PolicyKind::kDcpFailureAware};
  for (const gc::PolicyKind kind : kinds) {
    gc::Workload workload = gc::Workload::trace_replay(
        trace, gc::Distribution::exponential(config.mu_max), /*seed=*/21);
    const auto controller = gc::make_policy(kind, &solver, popts);
    gc::SimulationOptions sim;
    sim.t_ref_s = config.t_ref_s;
    sim.warmup_s = 2.0 * popts.dcp.long_period_s;
    // Observability at full blast: the replay measurement doubles as the
    // smoke test that a traced + time-series-recorded run stays within the
    // perf budget (both sinks are discarded afterwards).
    gc::TraceCollector trace_sink;
    gc::TimeSeriesRecorder ts_sink;
    sim.trace = &trace_sink;
    sim.timeseries = &ts_sink;
    (void)run_simulation(workload, fig8_cluster(config), *controller, sim);
  }
  return solver.cache_stats();
}

// One cell of the sharded scaling grid: a constant-rate trace replayed
// through run_sharded_simulation over an M-server fleet split into K
// shards, under the rule-based threshold autoscaler (no solver in the hot
// path, so the measurement is the DES core, not Provisioner enumeration).
// The arrival count grows with M so per-barrier O(M) work (reconcile
// scans, canonical folds) never dominates the per-event work being
// measured.  Fails the whole bench (exit, not a JSON entry) if the
// EventQueue capacity hint did not hold: a steady-state reallocation means
// expected_events_hint plumbing regressed.
struct ShardedCell {
  unsigned shards = 0;
  unsigned servers = 0;
  double events_per_sec = 0.0;
  double speedup = 1.0;     // vs the K = 1 cell at the same M
  double efficiency = 1.0;  // speedup / K
  // Engine self-profile (ShardProfile): how packed the barrier windows
  // were and how skewed the per-shard work was.  Imbalance explains a low
  // efficiency number: barrier waits, not per-event cost.
  double busy_fraction = 0.0;
  double imbalance = 0.0;
};

double sharded_cell_events_per_sec(unsigned k, unsigned m, unsigned initial_active,
                                   gc::ShardProfile& shard_profile) {
  gc::ClusterConfig config = gc::bench_cluster_config();
  config.max_servers = m;

  const double horizon_s = 30.0;
  const auto arrivals = static_cast<double>(std::max(100000u, 2 * m));
  const gc::PiecewiseLinearRate profile(
      {{0.0, arrivals / horizon_s}, {horizon_s, arrivals / horizon_s}});
  const gc::Trace trace = gc::Trace::from_profile(profile, horizon_s, /*seed=*/7);
  const gc::Distribution job_size = gc::Distribution::exponential(config.mu_max);

  const gc::Provisioner solver(config);
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  const auto controller = gc::make_policy(gc::PolicyKind::kThreshold, &solver, popts);

  gc::ClusterOptions cluster;
  cluster.num_servers = m;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = initial_active;
  cluster.dispatch_seed = 4242;

  gc::SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  // Generous per-shard headroom: concurrent pending events are bounded by
  // jobs in flight plus the tick/fault timers, far below this.
  sim.expected_events_hint = 1u << 16;

  gc::ShardedOptions sharded;
  sharded.num_shards = k;
  sharded.profile = &shard_profile;

  const auto start = Clock::now();
  const gc::SimResult result =
      run_sharded_simulation(trace, job_size, /*workload_seed=*/7, cluster,
                             *controller, sim, sharded);
  const double elapsed = seconds_since(start);

  const std::uint64_t reallocs =
      result.counters.counter_or("sharded.queue_reallocations", 0);
  if (reallocs != 0) {
    std::fprintf(stderr,
                 "perf_smoke: sharded K=%u M=%u: %llu EventQueue "
                 "reallocations in steady state (expected_events_hint "
                 "violated)\n",
                 k, m, static_cast<unsigned long long>(reallocs));
    std::exit(1);
  }
  const std::uint64_t events =
      result.counters.counter_or("sharded.shard_events_scheduled", 0);
  return static_cast<double>(events) / elapsed;
}

std::vector<ShardedCell> sharded_grid() {
  const unsigned shard_counts[4] = {1, 2, 4, 8};
  const unsigned fleet_sizes[3] = {1024, 16384, 131072};
  std::vector<ShardedCell> grid;
  for (const unsigned m : fleet_sizes) {
    double base = 0.0;
    for (const unsigned k : shard_counts) {
      ShardedCell cell;
      cell.shards = k;
      cell.servers = m;
      gc::ShardProfile shard_profile;
      cell.events_per_sec = sharded_cell_events_per_sec(k, m, m, shard_profile);
      cell.busy_fraction = shard_profile.busy_fraction();
      cell.imbalance = shard_profile.imbalance();
      if (k == 1) base = cell.events_per_sec;
      cell.speedup = base > 0.0 ? cell.events_per_sec / base : 0.0;
      cell.efficiency = cell.speedup / static_cast<double>(k);
      grid.push_back(cell);
    }
  }
  return grid;
}

// The consolidated cell: K=4 over M=16384 with the initial target a 1/16
// prefix (1024 servers, ~33% utilized by the grid's 3333 arrivals/s, so
// the threshold autoscaler holds it there).  Best of three runs by
// imbalance: a layout that skews work shows in every run, while a worker
// descheduled by a busy host only inflates one.
ShardedCell sharded_consolidated() {
  ShardedCell best;
  for (int run = 0; run < 3; ++run) {
    ShardedCell cell;
    cell.shards = 4;
    cell.servers = 16384;
    gc::ShardProfile shard_profile;
    cell.events_per_sec = sharded_cell_events_per_sec(cell.shards, cell.servers,
                                                      cell.servers / 16, shard_profile);
    cell.busy_fraction = shard_profile.busy_fraction();
    cell.imbalance = shard_profile.imbalance();
    if (run == 0 || cell.imbalance < best.imbalance) best = cell;
  }
  return best;
}

struct Replay {
  double seconds = 0.0;
  std::uint64_t events = 0;  // events the engine dispatched (sim.events.*)
};

// The fig8 combined-DCP replay (three compressed WC98-like days), timed
// end to end.  With `with_sinks` it also attaches the trace, audit and
// time-series sinks and renders every artifact --trace-out and
// --timeseries-out write, to memory.
Replay fig8_replay(const gc::Trace& trace, bool with_sinks) {
  const gc::ClusterConfig config = gc::bench_cluster_config();
  const gc::Provisioner solver(config);
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  const auto controller = gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, popts);
  gc::Workload workload = gc::Workload::trace_replay(
      trace, gc::Distribution::exponential(config.mu_max), /*seed=*/21);
  gc::SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = 2.0 * popts.dcp.long_period_s;
  sim.record_interval_s = 240.0;

  struct Sinks {
    gc::TraceCollector trace;
    gc::DecisionAuditLog audit;
    gc::TimeSeriesRecorder timeseries;
  };
  const auto start = Clock::now();
  std::optional<Sinks> sinks;
  if (with_sinks) {
    sinks.emplace();
    sim.trace = &sinks->trace;
    sim.audit = &sinks->audit;
    sim.timeseries = &sinks->timeseries;
  }
  const gc::SimResult r = run_simulation(workload, fig8_cluster(config), *controller, sim);
  std::size_t bytes = 0;
  if (sinks) {
    bytes += sinks->trace.to_chrome_json().size();
    bytes += sinks->audit.to_jsonl().size();
    bytes += gc::to_csv_text(sinks->audit.to_csv_table()).size();
    bytes += gc::to_csv_text(sinks->timeseries.to_csv_table()).size();
    bytes += r.counters.to_json().size();
    std::ostringstream lifecycle;
    gc::write_lifecycle_jsonl(lifecycle, r.command_lifecycles);
    bytes += lifecycle.str().size();
    bytes += gc::to_prometheus_text(
                 r.counters,
                 {{"response_time_seconds", &r.response_hist},
                  {"cp.lifecycle.ack_latency_seconds", &r.lifecycle_ack_hist},
                  {"cp.lifecycle.apply_latency_seconds", &r.lifecycle_apply_hist},
                  {"cp.lifecycle.e2e_seconds", &r.lifecycle_e2e_hist},
                  {"cp.lifecycle.obs_age_seconds", &r.lifecycle_obs_age_hist}})
                 .size();
  }
  const double elapsed = seconds_since(start);
  if (with_sinks && bytes == 0) {
    std::fprintf(stderr, "perf_smoke: sinks_overhead rendered no artifact bytes\n");
    std::exit(1);
  }
  Replay replay{elapsed, 0};
  for (const auto& [name, value] : r.counters.counters) {
    if (name.starts_with("sim.events.")) replay.events += value;
  }
  return replay;
}

struct SinksOverhead {
  double off_s = 0.0;  // best of the pairs, sinks off
  double on_s = 0.0;   // best of the pairs, sinks on + every artifact rendered
  double ratio = 0.0;  // median over the pairs of on / off
  std::uint64_t events = 0;  // per sinks-off replay (deterministic)
  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / off_s;
  }
};

// Off and on runs alternate so a drifting host load hits both sides, and
// the gated ratio is the median of the per-pair ratios, so one slow replay
// on either side moves it by one rank, not by its whole delay.  One
// untimed pair first warms the allocator and the caches.
SinksOverhead sinks_overhead() {
  constexpr int kPairs = 9;
  const gc::Trace trace = fig8_trace(gc::bench_cluster_config());
  (void)fig8_replay(trace, false);
  (void)fig8_replay(trace, true);
  SinksOverhead result;
  std::vector<double> ratios;
  for (int rep = 0; rep < kPairs; ++rep) {
    const Replay off = fig8_replay(trace, false);
    const double on = fig8_replay(trace, true).seconds;
    if (rep == 0 || off.seconds < result.off_s) result.off_s = off.seconds;
    if (rep == 0 || on < result.on_s) result.on_s = on;
    result.events = off.events;
    ratios.push_back(on / off.seconds);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  result.ratio = ratios[kPairs / 2];
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_core.json";

  const unsigned sizes[3] = {16, 256, 1024};
  double ops[3];
  for (int i = 0; i < 3; ++i) {
    (void)event_loop_ops_per_sec(sizes[i], 100000);  // warmup
    ops[i] = best_of(3, sizes[i], 1000000);
  }

  const gc::Provisioner solver(gc::bench_cluster_config());
  const double solve_ns = solve_ns_per_call(solver, 200000);
  const double solve_reliable_ns = solve_reliable_ns_per_call(solver, 200000);
  const gc::SolverCacheStats replay = trace_replay_cache_stats();
  const std::vector<ShardedCell> grid = sharded_grid();
  const ShardedCell consolidated = sharded_consolidated();
  const SinksOverhead sinks = sinks_overhead();
  double speedup_k4_m16384 = 0.0;
  for (const ShardedCell& cell : grid) {
    if (cell.shards == 4 && cell.servers == 16384) speedup_k4_m16384 = cell.speedup;
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"event_loop\": [\n");
  for (int i = 0; i < 3; ++i) {
    std::fprintf(out, "    {\"pending_events\": %u, \"events_per_sec\": %.6e}%s\n",
                 sizes[i], ops[i], i + 1 < 3 ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"solve_ns_per_call\": %.3f,\n"
               "  \"solve_reliable_ns_per_call\": %.3f,\n"
               "  \"solver_cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"hit_rate\": %.6f},\n",
               solve_ns, solve_reliable_ns,
               static_cast<unsigned long long>(replay.hits),
               static_cast<unsigned long long>(replay.misses), replay.hit_rate());
  std::fprintf(out, "  \"sharded\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ShardedCell& cell = grid[i];
    std::fprintf(out,
                 "    {\"shards\": %u, \"servers\": %u, "
                 "\"events_per_sec\": %.6e, \"speedup\": %.4f, "
                 "\"efficiency\": %.4f, \"busy_fraction\": %.4f, "
                 "\"imbalance\": %.4f}%s\n",
                 cell.shards, cell.servers, cell.events_per_sec, cell.speedup,
                 cell.efficiency, cell.busy_fraction, cell.imbalance,
                 i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"sharded_consolidated\": {\"shards\": %u, \"servers\": %u, "
               "\"initial_active\": %u, \"events_per_sec\": %.6e, "
               "\"busy_fraction\": %.4f, \"imbalance\": %.4f},\n"
               "  \"sharded_speedup_k4_m16384\": %.4f,\n"
               "  \"dcday\": {\"events\": %llu, \"run_s\": %.6f, "
               "\"events_per_sec\": %.6e},\n"
               "  \"sinks_overhead\": {\"sinks_off_s\": %.6f, \"sinks_on_s\": %.6f, "
               "\"ratio\": %.4f}\n"
               "}\n",
               consolidated.shards, consolidated.servers, consolidated.servers / 16,
               consolidated.events_per_sec, consolidated.busy_fraction,
               consolidated.imbalance, speedup_k4_m16384,
               static_cast<unsigned long long>(sinks.events), sinks.off_s,
               sinks.events_per_sec(), sinks.off_s, sinks.on_s, sinks.ratio);
  std::fclose(out);

  std::printf("event loop  : M=16 %.3e  M=256 %.3e  M=1024 %.3e ops/sec\n",
              ops[0], ops[1], ops[2]);
  std::printf("solve       : %.1f ns/call (cached replay mix)\n", solve_ns);
  std::printf("solve_rel   : %.1f ns/call (cached replay mix, avail + wear)\n",
              solve_reliable_ns);
  std::printf("cache replay: %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(replay.hits),
              static_cast<unsigned long long>(replay.misses),
              replay.hit_rate() * 100.0);
  for (const ShardedCell& cell : grid) {
    std::printf("sharded     : K=%u M=%-6u %.3e ev/s  speedup %.2fx  eff %.0f%%\n",
                cell.shards, cell.servers, cell.events_per_sec, cell.speedup,
                cell.efficiency * 100.0);
  }
  std::printf("consolidated: K=%u M=%-6u %.3e ev/s  imbalance %.2f (1/16 prefix)\n",
              consolidated.shards, consolidated.servers, consolidated.events_per_sec,
              consolidated.imbalance);
  std::printf("dcday       : fig8 replay %llu events in %.3f s (%.3e ev/s)\n",
              static_cast<unsigned long long>(sinks.events), sinks.off_s,
              sinks.events_per_sec());
  std::printf("sinks       : fig8 replay %.3f s off, %.3f s on + rendered (%.2fx)\n",
              sinks.off_s, sinks.on_s, sinks.ratio);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
