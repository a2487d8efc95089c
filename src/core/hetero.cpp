#include "core/hetero.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/assert.h"

namespace gc {

void HeteroConfig::validate() const {
  if (classes.empty()) throw std::invalid_argument("HeteroConfig: no classes");
  if (!(t_ref_s > 0.0) || !std::isfinite(t_ref_s)) {
    throw std::invalid_argument("HeteroConfig: t_ref must be > 0");
  }
  bool any_servers = false;
  for (const ServerClass& sc : classes) {
    if (!(sc.mu_max > 0.0)) throw std::invalid_argument("HeteroConfig: mu_max must be > 0");
    if (1.0 / sc.mu_max >= t_ref_s) {
      throw std::invalid_argument(
          "HeteroConfig: t_ref must exceed 1/mu_max for every class");
    }
    (void)PowerModel(sc.power);  // throws on inconsistency
    any_servers = any_servers || sc.count > 0;
  }
  if (!any_servers) throw std::invalid_argument("HeteroConfig: zero servers overall");
}

unsigned HeteroConfig::total_servers() const noexcept {
  unsigned total = 0;
  for (const ServerClass& sc : classes) total += sc.count;
  return total;
}

double HeteroConfig::max_feasible_arrival_rate() const {
  double total = 0.0;
  for (const ServerClass& sc : classes) {
    const double per_server = sc.mu_max - 1.0 / t_ref_s;
    if (per_server > 0.0) total += static_cast<double>(sc.count) * per_server;
  }
  return total;
}

HeteroProvisioner::HeteroProvisioner(HeteroConfig config) : config_(std::move(config)) {
  config_.validate();
  power_models_.reserve(config_.classes.size());
  for (const ServerClass& sc : config_.classes) power_models_.emplace_back(sc.power);
}

std::optional<ClassAllocation> HeteroProvisioner::class_allocation(std::size_t c,
                                                                   unsigned n,
                                                                   double load) const {
  const ServerClass& sc = config_.classes[c];
  const PowerModel& pm = power_models_[c];
  ClassAllocation alloc;
  alloc.servers = n;
  alloc.load = load;
  if (n == 0) {
    if (load > 0.0) return std::nullopt;
    alloc.speed = 0.0;
    alloc.power_watts = static_cast<double>(sc.count) * pm.off_power();
    alloc.response_time_s = 0.0;
    return alloc;
  }
  const double s_cont =
      (load / static_cast<double>(n) + 1.0 / config_.t_ref_s) / sc.mu_max;
  if (s_cont > 1.0 + 1e-12) return std::nullopt;
  const double s = sc.ladder.round_up(std::min(s_cont, 1.0));
  const double mu = s * sc.mu_max;
  const double per_server_load = load / static_cast<double>(n);
  if (!(mu > per_server_load)) return std::nullopt;
  const double util = per_server_load / mu;
  alloc.speed = s;
  alloc.response_time_s = 1.0 / (mu - per_server_load);
  alloc.power_watts = static_cast<double>(n) * pm.expected_power(s, util) +
                      static_cast<double>(sc.count - n) * pm.off_power();
  if (alloc.response_time_s > config_.t_ref_s * (1.0 + 1e-9)) return std::nullopt;
  return alloc;
}

std::optional<double> HeteroProvisioner::split_cost(double lambda,
                                                    const std::vector<unsigned>& counts,
                                                    std::vector<double>* loads) const {
  const std::size_t k = config_.classes.size();
  GC_CHECK(counts.size() == k, "split_cost: counts size mismatch");

  // Enumerate one ladder level per active class.  Given levels, per-class
  // cost is affine in the routed load (see hetero.h), so the optimal split
  // fills classes in increasing marginal-cost order — exact.
  struct LevelChoice {
    double speed = 0.0;
    double fixed = 0.0;     // cost at x = 0 for the active servers
    double slope = 0.0;     // dW / d(load)
    double capacity = 0.0;  // max SLA-feasible load at this level
  };

  std::vector<std::vector<LevelChoice>> options(k);
  for (std::size_t c = 0; c < k; ++c) {
    const ServerClass& sc = config_.classes[c];
    const double n = static_cast<double>(counts[c]);
    if (counts[c] == 0) {
      options[c].push_back({0.0, 0.0, 0.0, 0.0});
      continue;
    }
    const std::size_t levels =
        sc.ladder.is_continuous() ? 0 : sc.ladder.num_levels();
    GC_CHECK(levels > 0, "hetero solver requires discrete per-class ladders");
    for (std::size_t i = 0; i < levels; ++i) {
      const double s = sc.ladder.speed_of_level(i);
      const double slack = s * sc.mu_max - 1.0 / config_.t_ref_s;
      if (!(slack > 0.0)) continue;
      LevelChoice choice;
      choice.speed = s;
      choice.capacity = n * slack;
      const double dyn = sc.power.p_max_watts - sc.power.p_idle_watts;
      if (sc.power.utilization_gated) {
        choice.fixed = n * sc.power.p_idle_watts;
        choice.slope = dyn * std::pow(s, sc.power.alpha - 1.0) / sc.mu_max;
      } else {
        choice.fixed = n * (sc.power.p_idle_watts + dyn * std::pow(s, sc.power.alpha));
        choice.slope = 0.0;
      }
      options[c].push_back(choice);
    }
    if (options[c].empty()) return std::nullopt;
  }

  // Product over per-class level choices (k and level counts are small).
  std::vector<std::size_t> index(k, 0);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<double> best_loads;
  std::vector<std::size_t> order(k);
  for (;;) {
    double total_capacity = 0.0;
    for (std::size_t c = 0; c < k; ++c) total_capacity += options[c][index[c]].capacity;
    if (total_capacity + 1e-9 >= lambda) {
      // Fill in increasing slope order.
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return options[a][index[a]].slope < options[b][index[b]].slope;
      });
      double remaining = lambda;
      double cost = 0.0;
      std::vector<double> loads_here(k, 0.0);
      for (const std::size_t c : order) {
        const LevelChoice& choice = options[c][index[c]];
        const double take = std::min(remaining, choice.capacity);
        loads_here[c] = take;
        cost += choice.fixed + choice.slope * take;
        remaining -= take;
      }
      // Off-server draw of every class (constant given counts).
      for (std::size_t c = 0; c < k; ++c) {
        cost += static_cast<double>(config_.classes[c].count - counts[c]) *
                power_models_[c].off_power();
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_loads = loads_here;
      }
    }
    // Advance the mixed-radix index.
    std::size_t c = 0;
    while (c < k) {
      if (++index[c] < options[c].size()) break;
      index[c] = 0;
      ++c;
    }
    if (c == k) break;
  }
  if (!std::isfinite(best_cost)) return std::nullopt;
  if (loads != nullptr) *loads = best_loads;
  return best_cost;
}

std::optional<HeteroOperatingPoint> HeteroProvisioner::evaluate_counts(
    double lambda, const std::vector<unsigned>& counts) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "evaluate_counts: bad lambda");
  GC_CHECK(counts.size() == config_.classes.size(), "evaluate_counts: counts size");
  for (std::size_t c = 0; c < counts.size(); ++c) {
    GC_CHECK(counts[c] <= config_.classes[c].count, "evaluate_counts: count > class size");
  }
  std::vector<double> loads;
  const auto cost = split_cost(lambda, counts, &loads);
  if (!cost) return std::nullopt;

  HeteroOperatingPoint point;
  point.feasible = true;
  point.power_watts = 0.0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    auto alloc = class_allocation(c, counts[c], loads[c]);
    GC_CHECK(alloc.has_value(), "split produced an infeasible class allocation");
    point.power_watts += alloc->power_watts;
    point.allocations.push_back(std::move(*alloc));
  }
  return point;
}

HeteroOperatingPoint HeteroProvisioner::best_effort(double lambda) const {
  HeteroOperatingPoint point;
  point.feasible = false;
  for (std::size_t c = 0; c < config_.classes.size(); ++c) {
    const ServerClass& sc = config_.classes[c];
    ClassAllocation alloc;
    alloc.servers = sc.count;
    alloc.speed = 1.0;
    // Pro-rata share by raw capacity.
    double total_mu = 0.0;
    for (const ServerClass& other : config_.classes) {
      total_mu += static_cast<double>(other.count) * other.mu_max;
    }
    alloc.load = total_mu > 0.0
                     ? lambda * static_cast<double>(sc.count) * sc.mu_max / total_mu
                     : 0.0;
    const double n = std::max<double>(sc.count, 1);
    const double util =
        std::min(alloc.load / (n * sc.mu_max), 1.0);
    alloc.power_watts =
        static_cast<double>(sc.count) * power_models_[c].expected_power(1.0, util);
    alloc.response_time_s = std::numeric_limits<double>::infinity();
    point.power_watts += alloc.power_watts;
    point.allocations.push_back(alloc);
  }
  return point;
}

HeteroOperatingPoint HeteroProvisioner::solve(double lambda) const {
  GC_CHECK(lambda >= 0.0 && std::isfinite(lambda), "solve: bad lambda");
  const std::size_t k = config_.classes.size();

  if (lambda > config_.max_feasible_arrival_rate() * (1.0 + 1e-12)) {
    return best_effort(lambda);
  }

  std::optional<HeteroOperatingPoint> best;
  auto consider = [&](const std::vector<unsigned>& counts) {
    const auto point = evaluate_counts(lambda, counts);
    if (point && (!best || point->power_watts < best->power_watts)) best = point;
  };

  if (k <= 2) {
    // Exhaustive over count vectors (pod-scale class sizes).
    std::vector<unsigned> counts(k, 0);
    if (k == 1) {
      for (unsigned n = 0; n <= config_.classes[0].count; ++n) {
        counts[0] = n;
        consider(counts);
      }
    } else {
      for (unsigned a = 0; a <= config_.classes[0].count; ++a) {
        for (unsigned b = 0; b <= config_.classes[1].count; ++b) {
          counts[0] = a;
          counts[1] = b;
          consider(counts);
        }
      }
    }
  } else {
    // Greedy descent from everything-on: repeatedly apply the single count
    // decrement that lowers power most, until no decrement helps.
    std::vector<unsigned> counts;
    counts.reserve(k);
    for (const ServerClass& sc : config_.classes) counts.push_back(sc.count);
    consider(counts);
    bool improved = true;
    while (improved && best) {
      improved = false;
      std::vector<unsigned> next = counts;
      double next_power = best->power_watts;
      for (std::size_t c = 0; c < k; ++c) {
        if (counts[c] == 0) continue;
        std::vector<unsigned> candidate = counts;
        --candidate[c];
        const auto point = evaluate_counts(lambda, candidate);
        if (point && point->power_watts < next_power) {
          next = candidate;
          next_power = point->power_watts;
          improved = true;
        }
      }
      if (improved) {
        counts = next;
        consider(counts);
      }
    }
  }
  if (!best) return best_effort(lambda);
  return *best;
}

}  // namespace gc
