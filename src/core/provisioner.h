// The joint DVFS + VOVF solver — the paper's core contribution.
//
// Problem: given arrival rate λ, pick the number of active servers m and a
// common normalized speed s minimizing expected cluster power subject to
// the mean-response-time guarantee E[T] <= t_ref.
//
// Structure exploited (DESIGN.md §1.1): for any feasible m, expected power
// is increasing in s, so the optimum runs at the *minimal feasible speed*
//
//     s_min(m) = (λ/m + 1/t_ref) / μ_max          (M/M/1 model)
//
// leaving a one-dimensional problem over m whose continuous relaxation is
// convex.  Three solvers are provided and cross-checked by property tests:
//
//   * solve()            — exact linear scan over m (the reference; it
//                          stops early once every larger m provably costs
//                          more, see scan_range),
//   * solve_fast()       — ternary search on the relaxation + local exact
//                          refinement (O(log M) evaluations),
//   * solve_continuous() — the continuous relaxation itself (analysis).
//
// Discrete frequency ladders are handled by rounding s_min up to the next
// level before costing (round-up preserves feasibility; power
// monotonicity in s makes it optimal among ladder points for that m).
//
// Memoization: solve() / solve_capped() / best_speed_for() consult a
// direct-mapped cache keyed on (λ, m, operation).  λ is quantized only to
// choose the slot; a hit additionally requires the stored λ to compare
// *exactly* equal, so cached answers are bit-identical to recomputation
// (zero approximation error — see DESIGN.md §"Performance engineering").
// Controllers re-solve the same measured rates constantly (integer arrival
// counts over fixed tick periods), which is what makes the cache pay.
// The configuration is fixed at construction, so a cached point can never
// outlive the config that produced it and the cache has no invalidation.
//
// Thread-safety: the cache mutates under const solver calls, so a
// Provisioner must not be shared across threads without external
// synchronization (the experiment runner builds one per run).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster_config.h"
#include "core/operating_point.h"
#include "core/reliability.h"

namespace gc {

struct SolverCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct ContinuousSolution {
  double servers = 0.0;  // relaxed m*
  double speed = 0.0;    // s_min(m*)
  double power_watts = 0.0;
  bool feasible = false;
};

class Provisioner {
 public:
  // Validates the config (throws std::invalid_argument on bad settings).
  explicit Provisioner(ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  [[nodiscard]] const SolverCacheStats& cache_stats() const noexcept {
    return cache_stats_;
  }

  // Minimal continuous speed for m active servers to meet t_ref under the
  // configured performance model; nullopt if infeasible even at s = 1.
  [[nodiscard]] std::optional<double> min_speed(double lambda, unsigned m) const;

  // Smallest m that is feasible at s = 1 (respecting config.min_servers).
  // nullopt if even m = max_servers cannot meet the guarantee.
  [[nodiscard]] std::optional<unsigned> min_feasible_servers(double lambda) const;

  // Predicted steady state at a given (m, s); `feasible` reflects both
  // stability and the t_ref guarantee.  Power includes the off draw of the
  // (M - m) inactive servers.
  [[nodiscard]] OperatingPoint evaluate(double lambda, unsigned m, double s) const;

  // Cheapest feasible speed (on the ladder) for a *fixed* m — the
  // short-period DVFS step.  If no feasible speed exists the point is
  // returned with s = 1 and feasible = false (best effort under overload).
  [[nodiscard]] OperatingPoint best_speed_for(double lambda, unsigned m) const;

  // Exact solver: scans every m in [m_min, M].  Falls back to the
  // best-effort point (all servers, s = 1) when λ exceeds cluster
  // feasibility.
  [[nodiscard]] OperatingPoint solve(double lambda) const;

  // Exact solver restricted to m <= m_cap active servers: failure-aware
  // control plans within the fleet its detector believes is alive.  When
  // the guarantee cannot be met inside the cap the best-effort point is
  // (m_cap, s = 1) with feasible = false — degraded, not over-committed.
  [[nodiscard]] OperatingPoint solve_capped(double lambda, unsigned m_cap) const;

  // O(log M) solver; agrees with solve() (see tests/test_provisioner.cpp).
  [[nodiscard]] OperatingPoint solve_fast(double lambda) const;

  // Reliability-constrained solver (DESIGN.md §10): minimize power plus
  // the amortized wear cost of moving the committed pool, subject to
  // E[T] <= t_ref certified with the base m alone AND
  // fleet_availability(m, spares) >= availability_target, with
  // m + spares <= m_cap.  `m_committed` anchors the wear deadband and
  // `horizon_s` (the long control period) amortizes cycle_cost_j into
  // watts.  When the availability target is unreachable inside the cap
  // the plan carries the best-effort spare pool with binding = kCapacity.
  // Memoized like solve(): exact-hit on (λ, m_cap, m_committed), with the
  // knob set + horizon acting as a cache generation — changing any knob
  // drops only the reliable entries, never the plain ones.
  [[nodiscard]] ReliablePlan solve_reliable(double lambda, unsigned m_cap,
                                            unsigned m_committed, double horizon_s,
                                            const ReliabilityOptions& reliability) const;

  // Continuous relaxation over real-valued m (M/M/1 model only; the MMC
  // model has no smooth relaxation and falls back to the scan result).
  [[nodiscard]] ContinuousSolution solve_continuous(double lambda) const;

  // Expected cluster power at the relaxed objective, exposed for tests.
  [[nodiscard]] double relaxed_power(double lambda, double m_real) const;

 private:
  [[nodiscard]] double response_time(double lambda, unsigned m, double s) const;
  [[nodiscard]] OperatingPoint best_effort(double lambda) const;
  [[nodiscard]] OperatingPoint scan_range(double lambda, unsigned lo, unsigned hi) const;

  // Uncached solver bodies (the public entry points wrap them in `cached`).
  [[nodiscard]] OperatingPoint solve_uncached(double lambda) const;
  [[nodiscard]] OperatingPoint solve_capped_uncached(double lambda, unsigned m_cap) const;
  [[nodiscard]] OperatingPoint best_speed_for_uncached(double lambda, unsigned m) const;
  [[nodiscard]] ReliablePlan solve_reliable_uncached(
      double lambda, unsigned m_cap, unsigned m_committed, double horizon_s,
      const ReliabilityOptions& reliability) const;

  // -- memo cache -----------------------------------------------------------
  // Operation tag disambiguating entries that share (λ, m).
  enum class CacheOp : std::uint8_t { kEmpty = 0, kSolve, kSolveCapped, kBestSpeedFor };
  struct CacheEntry {
    double lambda = 0.0;
    std::uint32_t m = 0;
    CacheOp op = CacheOp::kEmpty;
    OperatingPoint point;
  };
  [[nodiscard]] std::size_t cache_slot(double lambda, unsigned m, CacheOp op) const;
  template <typename Fn>
  [[nodiscard]] OperatingPoint cached(double lambda, unsigned m, CacheOp op,
                                      Fn&& compute) const;

  // Reliable-plan memo table, separate from the OperatingPoint cache so a
  // reliability run never evicts plain-solver entries (and vice versa).
  // One knob generation at a time: solve_reliable purges these entries
  // whenever (reliability options, horizon) differ from the stored set,
  // so a hit is exact in every input.
  struct ReliableCacheEntry {
    double lambda = 0.0;
    std::uint32_t m_cap = 0;
    std::uint32_t m_committed = 0;
    bool valid = false;
    ReliablePlan plan;
  };
  [[nodiscard]] std::size_t reliable_slot(double lambda, unsigned m_cap,
                                          unsigned m_committed) const;

  ClusterConfig config_;
  PowerModel power_model_;
  double cache_quantum_ = 1.0;  // λ quantum for slot hashing only
  mutable std::vector<CacheEntry> cache_;
  mutable std::vector<ReliableCacheEntry> reliable_cache_;  // lazily sized
  mutable ReliabilityOptions reliable_knobs_;
  mutable double reliable_horizon_s_ = -1.0;  // -1: no generation stored yet
  mutable SolverCacheStats cache_stats_;
};

}  // namespace gc
