// T4 (extension) — Statistical confidence for the headline table.
//
// Table 2 reports single runs (one seed per cell, identical across
// policies).  This bench reruns the diurnal comparison with independent
// replications and reports mean ± 95% t-interval per policy, demonstrating
// that the policy ordering is not seed luck.  Replications execute in
// parallel on the process thread pool with per-replication RNG streams.
//
// The pooled p95/p99 columns come from merging the replications'
// LogHistograms (stats/log_histogram.h) — exact pooling of the 8 response
// distributions, which the per-run p95/p99 scalars cannot provide (averaging
// per-run quantiles is not the quantile of the pooled sample).
#include <iostream>

#include "exp/comparison.h"
#include "stats/accumulators.h"
#include "stats/batch_means.h"
#include "stats/log_histogram.h"
#include "util/table.h"

namespace {

struct Aggregate {
  gc::MeanVarAccumulator energy_kwh;
  gc::MeanVarAccumulator mean_t_ms;
  gc::MeanVarAccumulator viol_pct;
};

}  // namespace

int main() {
  constexpr unsigned kReplications = 8;
  gc::RunSpec spec;
  spec.config = gc::bench_cluster_config();
  spec.policy_options.dcp = gc::bench_dcp_params();
  spec.seed = 5150;
  const gc::Scenario scenario =
      gc::make_scenario(gc::ScenarioKind::kDiurnal, spec.config, 0.7, 31, 3600.0);

  const gc::PolicyKind policies[] = {gc::PolicyKind::kNpm, gc::PolicyKind::kDvfsOnly,
                                     gc::PolicyKind::kVovfOnly,
                                     gc::PolicyKind::kCombinedDcp};

  gc::TablePrinter table(
      "Table 4: replicated diurnal comparison, mean +/- 95% CI (8 replications)");
  table.column("policy")
      .column("energy", {.precision = 3, .unit = "kWh"})
      .column("+/-", {.precision = 3})
      .column("mean T", {.precision = 1, .unit = "ms"})
      .column("+/-", {.precision = 1})
      .column("pool p95", {.precision = 1, .unit = "ms"})
      .column("pool p99", {.precision = 1, .unit = "ms"})
      .column("viol", {.precision = 2, .unit = "%"})
      .column("+/-", {.precision = 2});

  for (const gc::PolicyKind policy : policies) {
    gc::RunSpec cell = spec;
    cell.policy = policy;
    const auto results = gc::run_replicated(scenario, cell, kReplications);
    Aggregate agg;
    gc::LogHistogram pooled;
    for (const gc::SimResult& r : results) {
      agg.energy_kwh.add(r.energy.total_j() / 3.6e6);
      agg.mean_t_ms.add(r.mean_response_s * 1e3);
      agg.viol_pct.add(r.job_violation_ratio * 100.0);
      pooled.merge(r.response_hist);
    }
    const double t = gc::t_quantile(0.95, kReplications - 1);
    table.row()
        .cell(to_string(policy))
        .cell(agg.energy_kwh.mean())
        .cell(t * agg.energy_kwh.sem())
        .cell(agg.mean_t_ms.mean())
        .cell(t * agg.mean_t_ms.sem())
        .cell(pooled.quantile(0.95) * 1e3)
        .cell(pooled.quantile(0.99) * 1e3)
        .cell(agg.viol_pct.mean())
        .cell(t * agg.viol_pct.sem());
  }
  std::cout << table;
  return 0;
}
