// Experiment runner: one simulation per (scenario, policy) cell, with
// parallel execution over the process thread pool and deterministic
// seeding per cell.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "control/policies.h"
#include "core/cluster_config.h"
#include "exp/scenario.h"
#include "sim/simulation.h"

namespace gc {

struct RunSpec {
  ClusterConfig config = {};
  PolicyKind policy = PolicyKind::kCombinedDcp;
  PolicyOptions policy_options = {};
  DispatchPolicy dispatch = DispatchPolicy::kJoinShortestQueue;
  SimulationOptions sim = {};
  std::uint64_t seed = 1;
  // Job-size law override (default: exponential with mean 1/mu_max, the
  // solver's design model).  Renormalize heavy-tailed laws with
  // Distribution::with_mean(1/config.mu_max) to keep offered load equal.
  std::optional<Distribution> job_size;

  // Convenience: default warmup of two long periods unless set explicitly.
  [[nodiscard]] SimulationOptions effective_sim_options() const;
};

// Runs one simulation of `scenario` under `spec`.
[[nodiscard]] SimResult run_one(const Scenario& scenario, const RunSpec& spec);

// Runs all specs (each against its paired scenario) in parallel; results
// are positionally aligned with the inputs and independent of thread count.
struct Cell {
  Scenario scenario;
  RunSpec spec;
};
[[nodiscard]] std::vector<SimResult> run_all(const std::vector<Cell>& cells);

// Replications: runs `n` copies of the cell with derived seeds and returns
// all results (callers aggregate).
[[nodiscard]] std::vector<SimResult> run_replicated(const Scenario& scenario,
                                                    const RunSpec& spec, unsigned n);

}  // namespace gc
