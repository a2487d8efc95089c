#include "core/provisioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "queueing/mm1.h"
#include "queueing/mmc.h"
#include "util/assert.h"

namespace gc {
namespace {

// Direct-mapped memo table: large enough that one DCP run's distinct
// measured rates rarely collide, small enough (~512 KiB) to build per run.
constexpr std::size_t kCacheSlots = 8192;

// Reliable-plan table: one controller re-solves far fewer distinct
// (λ, cap, committed) triples per run, so a smaller table suffices.
constexpr std::size_t kReliableCacheSlots = 2048;

}  // namespace

Provisioner::Provisioner(ClusterConfig config)
    : config_(std::move(config)), power_model_(config_.power) {
  config_.validate();
  cache_quantum_ =
      std::max(config_.max_feasible_arrival_rate(), 1.0) / 65536.0;
  cache_.resize(kCacheSlots);
}

std::size_t Provisioner::cache_slot(double lambda, unsigned m, CacheOp op) const {
  // λ enters the slot hash *quantized*: nearby rates that round to the
  // same bucket compete for one slot, exact equality is still required to
  // hit (checked by the caller), so quantization never changes a result.
  const auto bucket =
      static_cast<std::uint64_t>(std::llround(lambda / cache_quantum_));
  std::uint64_t h = bucket * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(m) << 8) | static_cast<std::uint64_t>(op);
  h *= 0xc2b2ae3d27d4eb4fULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h % kCacheSlots);
}

template <typename Fn>
OperatingPoint Provisioner::cached(double lambda, unsigned m, CacheOp op,
                                   Fn&& compute) const {
  CacheEntry& entry = cache_[cache_slot(lambda, m, op)];
  if (entry.op == op && entry.m == m && entry.lambda == lambda) {
    ++cache_stats_.hits;
    return entry.point;
  }
  ++cache_stats_.misses;
  const OperatingPoint point = compute();
  entry = CacheEntry{lambda, m, op, point};
  return point;
}

double Provisioner::response_time(double lambda, unsigned m, double s) const {
  const double mu = s * config_.mu_max;
  switch (config_.perf_model) {
    case PerfModel::kMm1PerServer: {
      const double per_server = lambda / static_cast<double>(m);
      if (!mm1::stable(per_server, mu)) return std::numeric_limits<double>::infinity();
      return mm1::mean_response_time(per_server, mu);
    }
    case PerfModel::kMmcCluster: {
      if (!mmc::stable(lambda, mu, m)) return std::numeric_limits<double>::infinity();
      return mmc::mean_response_time(lambda, mu, m);
    }
  }
  return std::numeric_limits<double>::infinity();
}

std::optional<double> Provisioner::min_speed(double lambda, unsigned m) const {
  GC_CHECK(m >= 1 && m <= config_.max_servers, "min_speed: m out of range");
  GC_CHECK(lambda >= 0.0, "min_speed: negative arrival rate");
  switch (config_.perf_model) {
    case PerfModel::kMm1PerServer: {
      // Closed form: s ≥ (λ/m + 1/t_ref) / μ_max.
      const double s = (lambda / static_cast<double>(m) + 1.0 / config_.t_ref_s) /
                       config_.mu_max;
      if (s > 1.0 + 1e-12) return std::nullopt;
      return std::min(s, 1.0);
    }
    case PerfModel::kMmcCluster: {
      // Response time is strictly decreasing in s; bisect.
      if (response_time(lambda, m, 1.0) > config_.t_ref_s) return std::nullopt;
      double lo = 0.0;
      double hi = 1.0;
      for (int it = 0; it < 64; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= 0.0) break;
        if (response_time(lambda, m, mid) <= config_.t_ref_s) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      return hi;
    }
  }
  return std::nullopt;
}

std::optional<unsigned> Provisioner::min_feasible_servers(double lambda) const {
  unsigned lo = config_.min_servers;
  if (config_.perf_model == PerfModel::kMm1PerServer) {
    // Closed form start: m ≥ λ / (μ_max − 1/t_ref).
    const double denom = config_.mu_max - 1.0 / config_.t_ref_s;
    const double m_real = lambda / denom;
    lo = std::max(lo, static_cast<unsigned>(std::ceil(m_real - 1e-9)));
  }
  for (unsigned m = std::max(lo, 1u); m <= config_.max_servers; ++m) {
    if (min_speed(lambda, m).has_value()) return m;
  }
  return std::nullopt;
}

OperatingPoint Provisioner::evaluate(double lambda, unsigned m, double s) const {
  GC_CHECK(m >= 1 && m <= config_.max_servers, "evaluate: m out of range");
  GC_CHECK(s > 0.0 && s <= 1.0 + 1e-12, "evaluate: speed out of (0,1]");
  OperatingPoint pt;
  pt.servers = m;
  pt.speed = std::min(s, 1.0);
  const double capacity = static_cast<double>(m) * pt.speed * config_.mu_max;
  pt.utilization = capacity > 0.0 ? std::min(lambda / capacity, 1.0) : 1.0;
  pt.response_time_s = response_time(lambda, m, pt.speed);
  pt.feasible = std::isfinite(pt.response_time_s) &&
                pt.response_time_s <= config_.t_ref_s * (1.0 + 1e-9);
  const double active = static_cast<double>(m) *
                        power_model_.expected_power(pt.speed, pt.utilization);
  const double off = static_cast<double>(config_.max_servers - m) *
                     power_model_.off_power();
  pt.power_watts = active + off;
  return pt;
}

OperatingPoint Provisioner::best_speed_for(double lambda, unsigned m) const {
  GC_CHECK(m >= 1 && m <= config_.max_servers, "best_speed_for: m out of range");
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "best_speed_for: bad lambda");
  return cached(lambda, m, CacheOp::kBestSpeedFor,
                [&] { return best_speed_for_uncached(lambda, m); });
}

OperatingPoint Provisioner::best_speed_for_uncached(double lambda, unsigned m) const {
  const auto s_cont = min_speed(lambda, m);
  if (!s_cont) {
    OperatingPoint pt = evaluate(lambda, m, 1.0);
    pt.feasible = false;
    return pt;
  }
  return evaluate(lambda, m, config_.ladder.round_up(*s_cont));
}

OperatingPoint Provisioner::best_effort(double lambda) const {
  OperatingPoint pt = evaluate(lambda, config_.max_servers, 1.0);
  pt.feasible = false;
  return pt;
}

OperatingPoint Provisioner::scan_range(double lambda, unsigned lo, unsigned hi) const {
  // Early exit (M/M/1 only, where s_min(m) is non-increasing in m): once
  // the rounded speed sits on the ladder floor it stays there for every
  // larger m, and at a fixed speed each extra server adds exactly
  // `slope` watts — p_idle − p_off gated (the dynamic term m·u is
  // constant), plus the dynamic power ungated.  If that slope dwarfs the
  // rounding error of any computed cost (at most a few ulps of M·p_max),
  // every larger m costs strictly more than the best so far and can never
  // win better_than, so the rest of the scan is skipped — the result is
  // the full scan's, bit for bit.
  const double floor_speed = config_.ladder.min_speed();
  const double slope =
      power_model_.expected_power(floor_speed, 0.0) - power_model_.off_power();
  const bool can_exit =
      config_.perf_model == PerfModel::kMm1PerServer &&
      slope > 1e-9 * static_cast<double>(config_.max_servers) * power_model_.p_max();
  OperatingPoint best;
  bool have_best = false;
  for (unsigned m = lo; m <= hi; ++m) {
    const auto s = min_speed(lambda, m);
    if (!s) continue;
    const OperatingPoint pt = evaluate(lambda, m, config_.ladder.round_up(*s));
    if (!pt.feasible) continue;  // ladder floor can overshoot only upward, but guard
    if (!have_best || pt.better_than(best)) {
      best = pt;
      have_best = true;
    }
    if (can_exit && pt.speed == floor_speed) break;
  }
  if (!have_best) return best_effort(lambda);
  return best;
}

OperatingPoint Provisioner::solve(double lambda) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "solve: bad lambda");
  return cached(lambda, 0, CacheOp::kSolve, [&] { return solve_uncached(lambda); });
}

OperatingPoint Provisioner::solve_uncached(double lambda) const {
  const auto m_min = min_feasible_servers(lambda);
  if (!m_min) return best_effort(lambda);
  return scan_range(lambda, *m_min, config_.max_servers);
}

OperatingPoint Provisioner::solve_capped(double lambda, unsigned m_cap) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "solve_capped: bad lambda");
  GC_CHECK(m_cap >= 1, "solve_capped: need at least one server in the cap");
  // Clamp before the lookup so caps beyond the fleet share one entry.
  m_cap = std::min(m_cap, config_.max_servers);
  return cached(lambda, m_cap, CacheOp::kSolveCapped,
                [&] { return solve_capped_uncached(lambda, m_cap); });
}

OperatingPoint Provisioner::solve_capped_uncached(double lambda, unsigned m_cap) const {
  const auto m_min = min_feasible_servers(lambda);
  if (!m_min || *m_min > m_cap) {
    OperatingPoint pt = evaluate(lambda, m_cap, 1.0);
    pt.feasible = false;
    return pt;
  }
  OperatingPoint pt = scan_range(lambda, *m_min, m_cap);
  if (!pt.feasible || pt.servers > m_cap) {
    // scan_range's fallback is the *uncapped* best effort; re-cap it.
    pt = evaluate(lambda, m_cap, 1.0);
    pt.feasible = false;
  }
  return pt;
}

std::size_t Provisioner::reliable_slot(double lambda, unsigned m_cap,
                                       unsigned m_committed) const {
  // Same quantized-λ slot hashing as cache_slot; exact equality on every
  // key component is still required to hit.
  const auto bucket =
      static_cast<std::uint64_t>(std::llround(lambda / cache_quantum_));
  std::uint64_t h = bucket * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(m_cap) << 32) |
       static_cast<std::uint64_t>(m_committed);
  h *= 0xc2b2ae3d27d4eb4fULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h % kReliableCacheSlots);
}

ReliablePlan Provisioner::solve_reliable(double lambda, unsigned m_cap,
                                         unsigned m_committed, double horizon_s,
                                         const ReliabilityOptions& reliability) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "solve_reliable: bad lambda");
  GC_CHECK(m_cap >= 1, "solve_reliable: need at least one server in the cap");
  GC_CHECK(horizon_s >= 0.0 && std::isfinite(horizon_s),
           "solve_reliable: bad horizon");
  // Clamp before the lookup so caps beyond the fleet share one entry.
  m_cap = std::min(m_cap, config_.max_servers);
  m_committed = std::min(m_committed, config_.max_servers);
  if (reliable_cache_.empty()) reliable_cache_.resize(kReliableCacheSlots);
  if (reliable_horizon_s_ != horizon_s || !(reliable_knobs_ == reliability)) {
    // New knob generation: cached plans answer a different objective, so
    // they must all go (plain OperatingPoint entries are untouched).
    reliability.validate();
    for (ReliableCacheEntry& entry : reliable_cache_) entry.valid = false;
    reliable_knobs_ = reliability;
    reliable_horizon_s_ = horizon_s;
  }
  ReliableCacheEntry& entry =
      reliable_cache_[reliable_slot(lambda, m_cap, m_committed)];
  if (entry.valid && entry.lambda == lambda && entry.m_cap == m_cap &&
      entry.m_committed == m_committed) {
    ++cache_stats_.hits;
    return entry.plan;
  }
  ++cache_stats_.misses;
  const ReliablePlan plan =
      solve_reliable_uncached(lambda, m_cap, m_committed, horizon_s, reliability);
  entry = ReliableCacheEntry{lambda, m_cap, m_committed, true, plan};
  return plan;
}

ReliablePlan Provisioner::solve_reliable_uncached(
    double lambda, unsigned m_cap, unsigned m_committed, double horizon_s,
    const ReliabilityOptions& reliability) const {
  const double a = reliability.server_availability();
  const bool constrained = reliability.availability_constrained();
  const double wear_w_per_server =
      reliability.wear_costed() && horizon_s > 0.0
          ? 0.5 * reliability.cycle_cost_j / horizon_s
          : 0.0;

  ReliablePlan plan;
  const auto m_min = min_feasible_servers(lambda);
  if (!m_min || *m_min > m_cap) {
    // Latency-infeasible inside the cap: degraded best effort, no spares
    // (every cap slot goes to serving capacity).
    plan.base = evaluate(lambda, m_cap, 1.0);
    plan.base.feasible = false;
    plan.availability = fleet_availability(m_cap, 0, a);
    plan.objective_w = plan.base.power_watts;
    plan.binding = BindingConstraint::kCapacity;
    return plan;
  }

  bool have_best = false;
  bool best_avail_ok = false;
  double best_objective = std::numeric_limits<double>::infinity();
  unsigned best_total = 0;
  for (unsigned m = *m_min; m <= m_cap; ++m) {
    const auto s_cont = min_speed(lambda, m);
    if (!s_cont) continue;
    const OperatingPoint base =
        evaluate(lambda, m, config_.ladder.round_up(*s_cont));
    if (!base.feasible) continue;
    // Spare pool: smallest k meeting the availability target within the
    // room the cap leaves; if unreachable, best effort with all the room.
    const unsigned spare_room = std::min(reliability.max_spares, m_cap - m);
    unsigned k = 0;
    bool avail_ok = true;
    if (constrained) {
      if (const auto solved =
              min_spares_for(m, a, reliability.availability_target, spare_room)) {
        k = *solved;
      } else {
        k = spare_room;
        avail_ok = false;
      }
    }
    // The dispatcher spreads load across every serving server, so the
    // committed pool of m + k runs at the base speed with diluted
    // utilization — cost that, while the t_ref guarantee stays certified
    // with the base m alone (spares may be down).
    const OperatingPoint pool = k > 0 ? evaluate(lambda, m + k, base.speed) : base;
    const unsigned total = m + k;
    const unsigned delta =
        total > m_committed ? total - m_committed : m_committed - total;
    const double objective =
        pool.power_watts + wear_w_per_server * static_cast<double>(delta);
    bool better = false;
    if (!have_best) {
      better = true;
    } else if (avail_ok != best_avail_ok) {
      better = avail_ok;  // meeting the availability target dominates cost
    } else if (objective < best_objective) {
      better = true;
    } else if (objective == best_objective && total < best_total) {
      better = true;
    }
    if (better) {
      have_best = true;
      best_avail_ok = avail_ok;
      best_objective = objective;
      best_total = total;
      plan.base = base;
      plan.spares = k;
      plan.availability = fleet_availability(m, k, a);
      plan.objective_w = objective;
    }
  }
  if (!have_best) {
    // Ladder round-up overshot t_ref for every m in range (same guard as
    // solve_capped_uncached): degraded best effort at the cap.
    plan.base = evaluate(lambda, m_cap, 1.0);
    plan.base.feasible = false;
    plan.spares = 0;
    plan.availability = fleet_availability(m_cap, 0, a);
    plan.objective_w = plan.base.power_watts;
    plan.binding = BindingConstraint::kCapacity;
    return plan;
  }
  plan.binding = !best_avail_ok ? BindingConstraint::kCapacity
                 : plan.spares > 0 ? BindingConstraint::kAvailability
                                   : BindingConstraint::kLatency;
  return plan;
}

double Provisioner::relaxed_power(double lambda, double m_real) const {
  GC_CHECK(config_.perf_model == PerfModel::kMm1PerServer,
           "relaxed_power: M/M/1 model only");
  GC_CHECK(m_real > 0.0, "relaxed_power: m must be positive");
  const double s =
      std::clamp((lambda / m_real + 1.0 / config_.t_ref_s) / config_.mu_max,
                 config_.ladder.min_speed(), 1.0);
  const PowerModelParams& p = config_.power;
  const double dyn_range = p.p_max_watts - p.p_idle_watts;
  double active;
  if (p.utilization_gated) {
    // m · [P_idle + ΔP s^α ρ] with ρ = λ/(m s μ):
    //   = m P_idle + ΔP (λ/μ) s^(α-1).
    active = m_real * p.p_idle_watts +
             dyn_range * (lambda / config_.mu_max) * std::pow(s, p.alpha - 1.0);
  } else {
    active = m_real * (p.p_idle_watts + dyn_range * std::pow(s, p.alpha));
  }
  const double off = (static_cast<double>(config_.max_servers) - m_real) * p.p_off_watts;
  return active + off;
}

ContinuousSolution Provisioner::solve_continuous(double lambda) const {
  ContinuousSolution sol;
  if (config_.perf_model != PerfModel::kMm1PerServer) {
    const OperatingPoint pt = solve(lambda);
    sol.servers = static_cast<double>(pt.servers);
    sol.speed = pt.speed;
    sol.power_watts = pt.power_watts;
    sol.feasible = pt.feasible;
    return sol;
  }
  // Feasible m range in the reals: s_min(m) <= 1 requires
  // m >= λ / (μ_max − 1/t_ref); cap at M.
  const double denom = config_.mu_max - 1.0 / config_.t_ref_s;
  const double m_lo = std::max(lambda / denom, static_cast<double>(config_.min_servers));
  const double m_hi = static_cast<double>(config_.max_servers);
  if (m_lo > m_hi + 1e-9) {
    sol.feasible = false;
    const OperatingPoint pt = best_effort(lambda);
    sol.servers = static_cast<double>(pt.servers);
    sol.speed = pt.speed;
    sol.power_watts = pt.power_watts;
    return sol;
  }
  // The relaxation is convex in m (DESIGN.md §1.1): golden-section search.
  constexpr double kPhi = 0.6180339887498949;
  double a = std::min(m_lo, m_hi);
  double b = m_hi;
  double x1 = b - kPhi * (b - a);
  double x2 = a + kPhi * (b - a);
  double f1 = relaxed_power(lambda, x1);
  double f2 = relaxed_power(lambda, x2);
  for (int it = 0; it < 200 && (b - a) > 1e-10 * std::max(1.0, b); ++it) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kPhi * (b - a);
      f1 = relaxed_power(lambda, x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kPhi * (b - a);
      f2 = relaxed_power(lambda, x2);
    }
  }
  sol.servers = 0.5 * (a + b);
  sol.speed = std::clamp(
      (lambda / sol.servers + 1.0 / config_.t_ref_s) / config_.mu_max,
      config_.ladder.min_speed(), 1.0);
  sol.power_watts = relaxed_power(lambda, sol.servers);
  sol.feasible = true;
  return sol;
}

OperatingPoint Provisioner::solve_fast(double lambda) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "solve_fast: bad lambda");
  const auto m_min = min_feasible_servers(lambda);
  if (!m_min) return best_effort(lambda);
  if (config_.perf_model != PerfModel::kMm1PerServer) {
    // No closed form for m(s) under the Erlang-C model; the full scan is
    // already O(M log M)-ish and M is small in practice.
    return scan_range(lambda, *m_min, config_.max_servers);
  }
  if (config_.ladder.is_continuous()) {
    // Convex relaxation + integer neighborhood (the clamped objective is
    // convex in m, so floor/ceil of the relaxed optimum bracket it; a ±3
    // window also absorbs the golden-section tolerance).
    const ContinuousSolution relaxed = solve_continuous(lambda);
    const auto center = static_cast<long>(std::llround(relaxed.servers));
    const long lo = std::max<long>(static_cast<long>(*m_min), center - 3);
    const long hi = std::min<long>(static_cast<long>(config_.max_servers), center + 3);
    return scan_range(lambda, static_cast<unsigned>(lo), static_cast<unsigned>(hi));
  }
  // Discrete ladder: the optimum runs at some level s_k, and for a fixed
  // speed the cluster cost is increasing in m (both gated and ungated
  // power laws), so the best m for level k is the *smallest* feasible one:
  //     s_min(m) <= s_k  <=>  m >= lambda / (s_k * mu_max - 1/t_ref).
  // Evaluating one candidate per level is exact and O(K).
  OperatingPoint best;
  bool found = false;
  for (std::size_t k = 0; k < config_.ladder.num_levels(); ++k) {
    const double s = config_.ladder.speed_of_level(k);
    const double slack = s * config_.mu_max - 1.0 / config_.t_ref_s;
    unsigned m = config_.min_servers;
    if (lambda > 0.0) {
      if (!(slack > 0.0)) continue;  // this level cannot meet t_ref at any m
      const double m_real = lambda / slack;
      if (m_real > static_cast<double>(config_.max_servers)) continue;
      m = std::max(config_.min_servers,
                   static_cast<unsigned>(std::ceil(m_real - 1e-9)));
    } else if (!(slack >= 0.0)) {
      continue;  // even an empty server misses t_ref at this speed
    }
    if (m > config_.max_servers) continue;
    const OperatingPoint pt = evaluate(lambda, m, s);
    if (!pt.feasible) continue;
    if (!found || pt.better_than(best)) {
      best = pt;
      found = true;
    }
  }
  if (!found) return best_effort(lambda);
  return best;
}

}  // namespace gc
