// Sharded deterministic simulation core: conservative parallel DES
// (DESIGN.md §11).
//
// The cluster is partitioned into K strided shards (shard k owns the
// servers gi ≡ k mod K; see ShardLayout), each owning its own EventQueue,
// FleetStore (sim/fleet_store.h: the server lifecycle, shared with the
// sequential Cluster), FaultInjector (sim/fault_injector.h: the fault
// plane, shared likewise), per-server RNG streams and per-server metric
// accumulators, executed on a fixed thread pool.  Synchronization is
// conservative: the DCP structure gives a natural lookahead window — no
// cross-shard interaction (provisioning commands, telemetry aggregation,
// admission updates) happens between control-period barriers — so each
// shard advances independently to the next barrier and the orchestrator
// thread runs the control plane between windows.  That control plane is
// the same shared control loop the sequential engine uses (sim/control_loop.h:
// facade, channel, actuator, outages, audit and time series); this engine
// contributes only its event loop and a FleetView over the shards.
//
// Determinism contract: the output is a pure function of the inputs and
// *independent of K* — every RNG stream is derived per global server index,
// arrivals map to servers through a frozen round-robin assignment fixed at
// each window start, and every floating-point reduction folds per-server
// partials in canonical (global server index) order.  The shard-determinism
// property test pins checksums at K ∈ {1, 2, 4, 7} against each other and
// against committed goldens.
//
// This is a distinct simulation model from run_simulation(), not a parallel
// re-implementation of it: the sequential loop's global JSQ dispatcher (one
// shared decision per arrival) is inherently order-dependent across the
// whole fleet and cannot be sharded bit-exactly (see DESIGN.md §11.1 for
// the argument).  The sharded engine therefore uses trace-based round-robin
// dispatch over the frozen serving set, lost (not failed-over) jobs on a
// crash, and histogram-derived tail quantiles.  The fault process is the
// one both engines share: each server draws from its own stream.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "stats/distributions.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace gc {

// Wall-clock self-profile of one sharded run: per-shard busy time inside
// the barrier-to-barrier advances versus the orchestrator's wall time
// across those advances.  Filled only when ShardedOptions::profile points
// here, and written *outside* SimResult on purpose — wall-clock readings
// are machine noise, and SimResult (counters included) must stay a pure,
// K-invariant function of the inputs.  bench/perf_smoke surfaces the
// derived gauges (busy fraction, imbalance) in BENCH_core.json.
struct ShardProfile {
  // Seconds each shard spent inside Shard::advance_to, indexed by shard.
  // Resized to the effective shard count by the engine.
  std::vector<double> shard_busy_s;
  // Orchestrator wall seconds spent across all advance barriers (issue to
  // last-shard completion — includes the barrier wait on the slowest
  // shard) and the number of barriers executed.
  double barrier_wall_s = 0.0;
  std::uint64_t barriers = 0;

  [[nodiscard]] double busy_total_s() const noexcept {
    double sum = 0.0;
    for (const double b : shard_busy_s) sum += b;
    return sum;
  }
  [[nodiscard]] double busy_max_s() const noexcept {
    double mx = 0.0;
    for (const double b : shard_busy_s) mx = b > mx ? b : mx;
    return mx;
  }
  // Fraction of the workers' aggregate barrier budget (K * wall) actually
  // spent advancing shards; the remainder is barrier wait + fan-out
  // overhead.  1.0 means perfectly packed.
  [[nodiscard]] double busy_fraction() const noexcept {
    const double denom =
        barrier_wall_s * static_cast<double>(shard_busy_s.size());
    return denom > 0.0 ? busy_total_s() / denom : 0.0;
  }
  // Load imbalance: slowest shard over mean shard busy time, minus 1.
  // 0 means all shards carried equal work; 1 means the critical shard was
  // twice the mean (half the fleet idles at every barrier).
  [[nodiscard]] double imbalance() const noexcept {
    const double total = busy_total_s();
    if (shard_busy_s.empty() || total <= 0.0) return 0.0;
    const double mean = total / static_cast<double>(shard_busy_s.size());
    return mean > 0.0 ? busy_max_s() / mean - 1.0 : 0.0;
  }
};

// Strided server ownership (DESIGN.md §11.2): shard k of K owns the
// global indices gi ≡ k (mod K), at local index li = gi / K.  Any prefix
// [0, n) of the fleet — which is what DCP commits — spreads over the shards
// within one server of evenly.
struct ShardLayout {
  unsigned num_shards = 1;   // K (>= 1)
  unsigned num_servers = 0;  // M

  [[nodiscard]] unsigned shard_of(std::uint32_t gi) const noexcept {
    return gi % num_shards;
  }
  [[nodiscard]] std::uint32_t local_of(std::uint32_t gi) const noexcept {
    return gi / num_shards;
  }
  [[nodiscard]] std::uint32_t global_of(unsigned k, std::uint32_t li) const noexcept {
    return li * num_shards + k;
  }
  // Servers of shard k with gi < bound: li < ceil((bound - k) / K).
  [[nodiscard]] std::uint32_t owned_below(unsigned k, unsigned bound) const noexcept {
    return bound > k ? (bound - k + num_shards - 1) / num_shards : 0;
  }
  // Servers shard k owns.
  [[nodiscard]] std::uint32_t owned(unsigned k) const noexcept {
    return owned_below(k, num_servers);
  }
};

struct ShardedOptions {
  // Number of shards K (>= 1; clamped to the fleet size).  K = 1 runs the
  // same model single-threaded and produces byte-identical output to any
  // other K.
  unsigned num_shards = 1;
  // Worker pool for the barrier-to-barrier shard advances; nullptr uses
  // util/thread_pool's process-wide pool.
  ThreadPool* pool = nullptr;
  // Optional wall-clock self-profile sink (see ShardProfile).  nullptr
  // skips the timing reads entirely; the simulated output is identical
  // either way.
  ShardProfile* profile = nullptr;
};

// Runs one sharded simulation over a concrete arrival trace.  `job_size`
// is sampled from per-server streams derived from `workload_seed`, so the
// draw sequence each server sees is independent of K.  The controller, the
// observability sinks inside `options` and the returned SimResult follow
// the same contracts as run_simulation().
[[nodiscard]] SimResult run_sharded_simulation(const Trace& trace,
                                               const Distribution& job_size,
                                               std::uint64_t workload_seed,
                                               const ClusterOptions& cluster,
                                               Controller& controller,
                                               const SimulationOptions& options,
                                               const ShardedOptions& sharded);

}  // namespace gc
