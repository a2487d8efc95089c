// Reliability model: wear-out budgets and a closed-form availability
// estimator (DESIGN.md §10).
//
// Two physical effects the energy-only solver ignores:
//
//   * Wear-out.  Every on/off transition consumes component lifetime
//     (thermal cycling, spin-up stress).  A server is given a
//     cycles-to-failure budget N_cyc; each boot or shutdown charges half
//     a cycle, so the lifetime fraction consumed after B boots and S
//     shutdowns is 0.5 (B + S) / N_cyc.  The solver translates that into
//     an energy-equivalent cost per cycle (`cycle_cost_j`) so wear
//     competes with energy in a single objective.
//
//   * Availability.  With per-server availability a = MTBF/(MTBF+MTTR)
//     (independent exponential fail/repair, the fault injector's model),
//     a fleet of m required servers plus k spares is *up* whenever at
//     least m of the m+k are healthy:
//
//         A(m, k) = P[Binomial(m+k, a) >= m]
//                 = sum_{j=m}^{m+k} C(m+k, j) a^j (1-a)^(m+k-j)
//
//     Only k+1 terms — evaluated with a downward recurrence from the
//     j = m+k term, so no factorials and no overflow for any fleet size.
//     tests/test_reliability.cpp property-tests the closed form against
//     long fault-injected simulation runs.
//
// Everything here is pure arithmetic over the options struct: no RNG, no
// clock, no global state — determinism-golden safe by construction.
// Deliberately header-only: the simulation layer reads
// wear fractions for its observability scalars without taking a link
// dependency on gc_core (sim/ sits below core/ in the module graph).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "core/operating_point.h"
#include "util/format.h"

namespace gc {

// Knobs for reliability-constrained provisioning.  Defaults disable every
// effect: mtbf_s = 0 turns the availability model off, cycles_to_failure =
// 0 turns wear accounting off, availability_target = 0 removes the
// constraint.  With the defaults, solve_reliable degenerates to
// solve_capped and the pinned determinism goldens are untouched.
struct ReliabilityOptions {
  double mtbf_s = 0.0;   // per-server mean time between failures; 0 = off
  double mttr_s = 600.0;  // per-server mean time to repair
  // Required steady-state fleet availability A_ref in (0, 1]; 0 disables
  // the constraint (spares are never solved).
  double availability_target = 0.0;
  // Cap on the solved spare count (bounds the constraint search).
  unsigned max_spares = 8;
  // On/off cycles a server survives before wear-out; 0 = wear off.
  double cycles_to_failure = 0.0;
  // Energy-equivalent joules charged per full on/off cycle in the solver
  // objective (amortized over the planning horizon).  0 = wear ignored by
  // the solver even when cycles_to_failure tracks it.
  double cycle_cost_j = 0.0;

  [[nodiscard]] bool operator==(const ReliabilityOptions&) const = default;

  // True when any reliability effect is active.
  [[nodiscard]] bool enabled() const noexcept {
    return mtbf_s > 0.0 || cycles_to_failure > 0.0;
  }
  // True when the solver must honor availability >= availability_target.
  [[nodiscard]] bool availability_constrained() const noexcept {
    return availability_target > 0.0 && mtbf_s > 0.0;
  }
  // True when transitions are charged in the solver objective.
  [[nodiscard]] bool wear_costed() const noexcept { return cycle_cost_j > 0.0; }

  // Steady-state per-server availability MTBF/(MTBF+MTTR); 1 when the
  // failure model is disabled (a fault-free server is always up).
  [[nodiscard]] double server_availability() const noexcept {
    if (!(mtbf_s > 0.0)) return 1.0;
    return mtbf_s / (mtbf_s + mttr_s);
  }

  // Throws std::invalid_argument on non-finite/negative MTBF or MTTR, a
  // target outside [0, 1], or negative wear knobs — bad values must fail
  // loudly, not clamp (a NaN MTBF silently disables every comparison).
  void validate() const {
    if (!std::isfinite(mtbf_s) || mtbf_s < 0.0) {
      throw std::invalid_argument(gc::format(
          "reliability: mtbf_s must be finite and >= 0 (got {})", mtbf_s));
    }
    if (!std::isfinite(mttr_s) || mttr_s < 0.0) {
      throw std::invalid_argument(gc::format(
          "reliability: mttr_s must be finite and >= 0 (got {})", mttr_s));
    }
    if (mtbf_s > 0.0 && !(mttr_s > 0.0)) {
      throw std::invalid_argument(
          "reliability: mttr_s must be > 0 when mtbf_s enables the failure "
          "model");
    }
    if (!(availability_target >= 0.0) || availability_target > 1.0) {
      throw std::invalid_argument(gc::format(
          "reliability: availability_target must be in [0, 1] (got {})",
          availability_target));
    }
    if (!std::isfinite(cycles_to_failure) || cycles_to_failure < 0.0) {
      throw std::invalid_argument(gc::format(
          "reliability: cycles_to_failure must be finite and >= 0 (got {})",
          cycles_to_failure));
    }
    if (!std::isfinite(cycle_cost_j) || cycle_cost_j < 0.0) {
      throw std::invalid_argument(gc::format(
          "reliability: cycle_cost_j must be finite and >= 0 (got {})",
          cycle_cost_j));
    }
  }
};

// P[at least `required` of `required + spares` servers are healthy] given
// per-server availability a.  Pure function; the boundaries short-circuit
// (a <= 0 -> fleet is down unless nothing is required, a >= 1 -> always up).
[[nodiscard]] inline double fleet_availability(unsigned required, unsigned spares,
                                               double server_availability) noexcept {
  if (required == 0) return 1.0;
  if (server_availability >= 1.0) return 1.0;
  if (server_availability <= 0.0) return 0.0;
  const unsigned n = required + spares;
  const double a = server_availability;
  const double ratio = (1.0 - a) / a;
  // Downward recurrence over the binomial pmf from j = n:
  //   term(n)   = a^n
  //   term(j-1) = term(j) * (j / (n - j + 1)) * (1-a)/a
  // Only the top k+1 terms (j = n .. required) are summed — no factorials,
  // numerically stable for any fleet size.
  double term = std::pow(a, static_cast<double>(n));
  double sum = term;
  for (unsigned j = n; j > required; --j) {
    term *= static_cast<double>(j) / static_cast<double>(n - j + 1) * ratio;
    sum += term;
  }
  return sum > 1.0 ? 1.0 : sum;
}

// Smallest spare count k <= max_spares with A(required, k) >= target;
// nullopt when even max_spares cannot reach the target.  A(m, k) is
// non-decreasing in k, so the first k clearing the target is minimal.
[[nodiscard]] inline std::optional<unsigned> min_spares_for(
    unsigned required, double server_availability, double target,
    unsigned max_spares) noexcept {
  for (unsigned k = 0; k <= max_spares; ++k) {
    if (fleet_availability(required, k, server_availability) >= target) return k;
  }
  return std::nullopt;
}

// Wear accounting: lifetime fractions from transition counts.
class WearModel {
 public:
  // Validates the options (throws std::invalid_argument).
  explicit WearModel(const ReliabilityOptions& options) : options_(options) {
    options_.validate();
  }

  [[nodiscard]] bool enabled() const noexcept { return options_.cycles_to_failure > 0.0; }

  // Lifetime fraction one server has consumed after the given transition
  // counts (0 when wear tracking is off).  Uncapped: a value above 1 means
  // the budget is exhausted.
  [[nodiscard]] double wear_fraction(std::uint64_t boots,
                                     std::uint64_t shutdowns) const noexcept {
    const double cycles = options_.cycles_to_failure;
    if (!(cycles > 0.0)) return 0.0;
    // A boot or a shutdown is each half of one full on/off cycle.
    return 0.5 * static_cast<double>(boots + shutdowns) / cycles;
  }

  // Energy-equivalent cost of changing the committed fleet size by
  // `delta` servers: each change is half an on/off cycle per server.
  [[nodiscard]] double transition_cost_j(unsigned delta) const noexcept {
    return 0.5 * options_.cycle_cost_j * static_cast<double>(delta);
  }

 private:
  ReliabilityOptions options_;
};

// Which constraint pinned the solved operating point (audit `explain`).
enum class BindingConstraint : std::uint8_t {
  kNone = 0,          // no reliability solve ran
  kLatency = 1,       // E[T] <= t_ref alone fixed (m, s); spares free
  kAvailability = 2,  // spare pool forced by availability >= A_ref
  kCapacity = 3,      // fleet cap: latency or availability target unmet
};

// Result of Provisioner::solve_reliable: the energy-optimal base point
// plus the solved spare pool and the constraint that bound the search.
struct ReliablePlan {
  OperatingPoint base;       // latency-feasible (m, s) operating point
  unsigned spares = 0;       // solved spare count (idle, powered servers)
  double availability = 1.0;  // closed-form A(base.servers, spares)
  double objective_w = 0.0;  // power + spare power + amortized wear cost
  BindingConstraint binding = BindingConstraint::kNone;
};

}  // namespace gc
