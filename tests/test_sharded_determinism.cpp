// K-invariance property tests for the sharded simulation core
// (sim/sharded.h, DESIGN.md §11).
//
// The contract under test: run_sharded_simulation's output is a pure
// function of its inputs and *independent of the shard count* — the same
// configuration at K ∈ {1, 2, 4, 7} must produce bit-identical SimResult
// checksums, byte-identical time-series CSVs and byte-identical audit
// JSONL.  Two sharded goldens (K = 1 and K = 4 on the fig5-style diurnal
// configuration) are pinned so cross-K agreement cannot drift silently as
// a group, and the sequential engine's lossy-channel golden is re-asserted
// to prove the sharded work left run_simulation untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/policies.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/timeseries.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "workload/rate_profile.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace gc {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

// Same shape as the sequential golden checksum (tests/
// test_determinism_golden.cpp): every scalar plus the timeline, not the
// counters snapshot.
std::uint64_t checksum(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.completed_jobs);
  h = mix(h, r.dropped_jobs);
  h = mix(h, r.shed_jobs);
  h = mix(h, r.failures);
  h = mix(h, r.repairs);
  h = mix(h, r.boot_timeouts);
  h = mix(h, r.jobs_redispatched);
  h = mix(h, r.jobs_lost);
  h = mix(h, r.sim_time_s);
  h = mix(h, r.mean_response_s);
  h = mix(h, r.p95_response_s);
  h = mix(h, r.p99_response_s);
  h = mix(h, r.max_response_s);
  h = mix(h, r.job_violation_ratio);
  h = mix(h, r.window_violation_ratio);
  h = mix(h, r.energy.busy_j);
  h = mix(h, r.energy.idle_j);
  h = mix(h, r.energy.transition_j);
  h = mix(h, r.energy.off_j);
  h = mix(h, r.mean_power_w);
  h = mix(h, r.boots);
  h = mix(h, r.shutdowns);
  h = mix(h, r.mean_serving);
  h = mix(h, r.mean_speed);
  h = mix(h, r.mean_jobs_in_system);
  h = mix(h, r.mean_available);
  h = mix(h, r.unavailability);
  h = mix(h, r.shed_ratio);
  h = mix(h, r.infeasible_ticks);
  h = mix(h, r.infeasible_ratio);
  for (const TimelinePoint& p : r.timeline) {
    h = mix(h, p.time);
    h = mix(h, p.arrival_rate);
    h = mix(h, static_cast<std::uint64_t>(p.serving));
    h = mix(h, static_cast<std::uint64_t>(p.powered));
    h = mix(h, static_cast<std::uint64_t>(p.available));
    h = mix(h, p.speed);
    h = mix(h, p.power_watts);
    h = mix(h, p.jobs_in_system);
    h = mix(h, p.window_mean_response_s);
    h = mix(h, p.admit_probability);
  }
  return h;
}

constexpr unsigned kShardCounts[] = {1, 2, 4, 7};

// Fixed-seed sharded configuration: the bench cluster driven by the
// combined DCP policy over a concrete arrival trace sampled once from a
// scenario profile (every K replays the *same* arrivals).
struct ShardedRun {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  Scenario scenario;
  SimulationOptions extra;
  std::uint64_t workload_seed = 97;

  ShardedRun() {
    popts.dcp = bench_dcp_params();
    scenario = make_scenario(ScenarioKind::kDiurnal, config, /*level=*/0.7,
                             /*seed=*/1234, /*day_s=*/2400.0);
  }

  [[nodiscard]] SimResult run(unsigned num_shards, DecisionAuditLog* audit,
                              TimeSeriesRecorder* timeseries) const {
    const Trace trace =
        Trace::from_profile(*scenario.profile, scenario.horizon_s, workload_seed);
    const Distribution job_size = Distribution::exponential(config.mu_max);
    const Provisioner solver(config);
    const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, popts);
    ClusterOptions cluster;
    cluster.num_servers = config.max_servers;
    cluster.power = config.power;
    cluster.transition = config.transition;
    cluster.initial_active = config.max_servers;
    cluster.dispatch_seed = 4242;
    SimulationOptions sim = extra;
    sim.t_ref_s = config.t_ref_s;
    sim.warmup_s = popts.dcp.long_period_s;
    sim.record_interval_s = 120.0;
    sim.audit = audit;
    sim.timeseries = timeseries;
    ShardedOptions sharded;
    sharded.num_shards = num_shards;
    return run_sharded_simulation(trace, job_size, workload_seed, cluster,
                                  *controller, sim, sharded);
  }
};

// The fig8-style degraded configuration: scripted + background faults,
// boot hangs, admission control and a lossy, latent control channel with
// the ack/retry actuator.  (No controller outages — those are
// sequential-only and rejected by the sharded engine.)
ShardedRun make_degraded_run() {
  ShardedRun r;
  r.extra.faults.script = {{600.0, 0, 900.0},
                           {600.0, 1, 900.0},
                           {601.0, 2, 1200.0},
                           {1200.0, 3, std::numeric_limits<double>::infinity()}};
  r.extra.faults.mtbf_s = 20000.0;
  r.extra.faults.mttr_s = 300.0;
  r.extra.faults.boot_hang_prob = 0.05;
  r.extra.faults.seed = 99;
  r.extra.admission.enabled = true;
  r.extra.admission.mu_max = r.config.mu_max;
  r.extra.channel.enabled = true;
  r.extra.channel.telemetry = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                               /*latency_jitter_s=*/0.1};
  r.extra.channel.command = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                             /*latency_jitter_s=*/0.1};
  r.extra.channel.ack = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                         /*latency_jitter_s=*/0.1};
  r.extra.actuator.enabled = true;
  r.extra.actuator.ack_timeout_s = 2.0;
  r.popts.staleness.horizon_s = 60.0;
  return r;
}

[[nodiscard]] std::string csv_bytes(const TimeSeriesRecorder& ts,
                                    const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("gc_sharded_determinism_" + tag + ".csv");
  ts.write_csv(path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::filesystem::remove(path);
  return buffer.str();
}

struct RunArtifacts {
  std::uint64_t sum = 0;
  std::string audit_jsonl;
  std::string ts_csv;
  SimResult result;
};

[[nodiscard]] RunArtifacts run_with_sinks(const ShardedRun& spec, unsigned k,
                                          const std::string& tag) {
  DecisionAuditLog audit;
  TimeSeriesRecorder timeseries;
  RunArtifacts out;
  out.result = spec.run(k, &audit, &timeseries);
  out.sum = checksum(out.result);
  out.audit_jsonl = audit.to_jsonl();
  out.ts_csv = csv_bytes(timeseries, tag + "_k" + std::to_string(k));
  return out;
}

// -- cross-K invariance ------------------------------------------------------

TEST(ShardedDeterminism, DiurnalRunIsShardCountInvariant) {
  const ShardedRun spec;
  const RunArtifacts base = run_with_sinks(spec, 1, "diurnal");
  EXPECT_GT(base.result.completed_jobs, 0u);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_with_sinks(spec, k, "diurnal");
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
  }
}

TEST(ShardedDeterminism, DegradedRunIsShardCountInvariant) {
  const ShardedRun spec = make_degraded_run();
  const RunArtifacts base = run_with_sinks(spec, 1, "degraded");
  // The degraded path actually exercised what it pins.
  EXPECT_GT(base.result.failures, 0u);
  EXPECT_GT(base.result.repairs, 0u);
  EXPECT_GT(base.result.telemetry_dropped, 0u);
  EXPECT_GT(base.result.command_retries, 0u);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_with_sinks(spec, k, "degraded");
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
  }
}

// Run-to-run determinism at a fixed K (thread scheduling must not leak).
TEST(ShardedDeterminism, RepeatedRunsAreBitIdentical) {
  const ShardedRun spec;
  const SimResult a = spec.run(4, nullptr, nullptr);
  const SimResult b = spec.run(4, nullptr, nullptr);
  EXPECT_EQ(checksum(a), checksum(b));
  EXPECT_EQ(a.counters, b.counters);
}

// -- pinned sharded goldens --------------------------------------------------
//
// The sharded engine is a distinct simulation model (round-robin trace
// dispatch, per-server fault streams — see DESIGN.md §11.1), so it pins its
// *own* goldens, separate from the sequential ones.  K = 1 and K = 4 pin
// the same value by construction; both are asserted so a K-dependent
// regression and a model regression are distinguishable in the failure.
constexpr std::uint64_t kShardedDiurnalGolden = 11986199079868584697ULL;

TEST(ShardedDeterminism, DiurnalGoldenIsPinnedAtK1) {
  const ShardedRun spec;
  EXPECT_EQ(checksum(spec.run(1, nullptr, nullptr)), kShardedDiurnalGolden);
}

TEST(ShardedDeterminism, DiurnalGoldenIsPinnedAtK4) {
  const ShardedRun spec;
  EXPECT_EQ(checksum(spec.run(4, nullptr, nullptr)), kShardedDiurnalGolden);
}

// -- mass consolidation ------------------------------------------------------
//
// An all-on 8192-server fleet consolidated by combined DCP onto the few
// servers the load needs: one reconcile drains thousands of servers, most
// of the fleet stays dark through every later speed command, and scripted
// crashes hold FAILED servers out of the speed fan-out across several
// short ticks (one lands on a server mid-shutdown, so it goes FAILED ->
// OFF dark).  The lossy, latent channel makes commands land between
// ticks.  The checksum was pinned on the engine that swept every server on
// every command, so this proves the same behaviour, not only K-invariance.
constexpr std::uint64_t kMassConsolidationGolden = 1682278609018400776ULL;

SimResult run_mass_consolidation(unsigned num_shards, DecisionAuditLog* audit) {
  ClusterConfig config = bench_cluster_config();
  config.max_servers = 8192;
  PolicyOptions popts;
  popts.dcp = bench_dcp_params();
  popts.staleness.horizon_s = 60.0;
  // A 200 s day opening at its trough: DCP consolidates to ~70 servers,
  // then grows the pool back towards ~190 at the peak.
  const SinusoidalRate profile(800.0, 480.0, 200.0, 50.0);
  const Trace trace = Trace::from_profile(profile, 200.0, 31);
  const Distribution job_size = Distribution::exponential(config.mu_max);
  const Provisioner solver(config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, popts);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 777;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  // Warm up past the consolidation and the first speed changes, so the
  // warmup energy flush meets dark servers that lag the speed log.
  sim.warmup_s = 60.0;
  sim.record_interval_s = 20.0;
  sim.audit = audit;
  sim.faults.script = {{12.0, 3, 40.0},     // FAILED over ~8 short ticks
                       {12.0, 40, 40.0},
                       {26.0, 6000, 30.0},  // mid-shutdown: FAILED, then OFF dark
                       {31.0, 17, 65.0},    // spans the pool's regrowth
                       {90.0, 5, std::numeric_limits<double>::infinity()},
                       {140.0, 10, 50.0},   // spans the speed ramp-down
                       {145.0, 11, 40.0}};
  sim.faults.boot_hang_prob = 0.05;
  sim.faults.mttr_s = 30.0;
  sim.faults.seed = 5;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.05, 0.05, 0.2};
  sim.channel.command = {0.1, 0.1, 0.3};
  sim.channel.ack = {0.05, 0.05, 0.2};
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 2.0;
  ShardedOptions sharded;
  sharded.num_shards = num_shards;
  return run_sharded_simulation(trace, job_size, 53, cluster, *controller, sim,
                                sharded);
}

// Counters minus the shard-layout ones (shard count, queue reallocations),
// which legitimately depend on K.
CountersSnapshot layout_free(const CountersSnapshot& c) {
  CountersSnapshot out;
  for (const auto& [name, value] : c.counters) {
    if (name != "sharded.num_shards" && name != "sharded.queue_reallocations") {
      out.add_counter(name, value);
    }
  }
  for (const auto& [name, value] : c.gauges) out.add_gauge(name, value);
  return out;
}

TEST(ShardedDeterminism, MassConsolidationMatchesPinnedGoldenAtEveryK) {
  DecisionAuditLog base_audit;
  const SimResult base = run_mass_consolidation(1, &base_audit);
  // The run exercised what it claims to: a mass drain, crashes, repairs
  // and commands lost or retried on the channel.
  EXPECT_GT(base.counters.counter_or("cluster.shutdowns", 0), 7000u);
  EXPECT_GT(base.counters.counter_or("cluster.failures", 0), 3u);
  EXPECT_GT(base.counters.counter_or("cluster.repairs", 0), 2u);
  EXPECT_GT(base.commands_dropped + base.command_retries, 0u);
  EXPECT_EQ(checksum(base), kMassConsolidationGolden);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    DecisionAuditLog audit;
    const SimResult other = run_mass_consolidation(k, &audit);
    EXPECT_EQ(checksum(other), kMassConsolidationGolden) << "K=" << k;
    EXPECT_EQ(layout_free(base.counters), layout_free(other.counters))
        << "counters diverged at K=" << k;
    EXPECT_EQ(base_audit.to_jsonl(), audit.to_jsonl())
        << "audit diverged at K=" << k;
  }
}

// -- model sanity ------------------------------------------------------------

// K above the fleet size clamps instead of creating empty shards.
TEST(ShardedDeterminism, ShardCountAboveFleetSizeClamps) {
  ShardedRun spec;
  const SimResult wide = spec.run(1000, nullptr, nullptr);
  const SimResult one_per_server = spec.run(spec.config.max_servers, nullptr, nullptr);
  EXPECT_EQ(checksum(wide), checksum(one_per_server));
}

// Unsupported sequential-only features are rejected loudly, not silently
// approximated.
TEST(ShardedDeterminism, RejectsHeterogeneousGroups) {
  const ShardedRun spec;
  const Trace trace = Trace::from_profile(*spec.scenario.profile, 60.0, 1);
  const Distribution job_size = Distribution::exponential(spec.config.mu_max);
  const Provisioner solver(spec.config);
  const auto controller =
      make_policy(PolicyKind::kCombinedDcp, &solver, spec.popts);
  ClusterOptions cluster;
  cluster.num_servers = 8;
  cluster.groups.push_back({.count = 8});
  SimulationOptions sim;
  EXPECT_DEATH((void)run_sharded_simulation(trace, job_size, 1, cluster,
                                            *controller, sim, {}),
               "sequential-only");
}

// The event accounting closes: every trace arrival is counted exactly once
// (admitted + shed across the whole run equals the trace length, including
// arrivals orphaned by an empty serving set).
TEST(ShardedDeterminism, ArrivalAccountingCloses) {
  const ShardedRun spec = make_degraded_run();
  const Trace trace = Trace::from_profile(*spec.scenario.profile,
                                          spec.scenario.horizon_s,
                                          spec.workload_seed);
  const SimResult r = spec.run(4, nullptr, nullptr);
  EXPECT_EQ(r.counters.counter_or("sim.jobs.admitted", 0) +
                r.counters.counter_or("sim.jobs.shed", 0),
            trace.size());
  EXPECT_EQ(r.counters.counter_or("sim.events.arrival", 0), trace.size());
}

// Job conservation over the whole run, with a warmup: every arrival is
// completed, shed, dropped or lost (nothing is in the system at the end).
// The registry counters are whole-run in both engines even though
// SimResult::completed_jobs counts only post-warmup completions.
std::uint64_t conservation_gap(const CountersSnapshot& c) {
  const std::uint64_t accounted =
      c.counter_or("sim.jobs.completed", 0) + c.counter_or("sim.jobs.shed", 0) +
      c.counter_or("sim.jobs.dropped", 0) + c.counter_or("sim.jobs.lost", 0);
  return c.counter_or("sim.events.arrival", 0) - accounted;
}

TEST(ShardedDeterminism, JobsAreConservedWithWarmupInBothEngines) {
  const ShardedRun spec = make_degraded_run();
  ASSERT_GT(spec.popts.dcp.long_period_s, 0.0);  // run() warms up one long period
  const Trace trace = Trace::from_profile(*spec.scenario.profile,
                                          spec.scenario.horizon_s,
                                          spec.workload_seed);
  for (const unsigned k : {1u, 3u}) {
    const SimResult r = spec.run(k, nullptr, nullptr);
    EXPECT_EQ(r.counters.counter_or("sim.events.arrival", 0), trace.size());
    EXPECT_EQ(conservation_gap(r.counters), 0u) << "sharded K=" << k;
    EXPECT_LT(r.completed_jobs, r.counters.counter_or("sim.jobs.completed", 0))
        << "the warmup's completions are outside SimResult";
  }

  Workload workload = spec.scenario.make_workload(spec.config, spec.workload_seed);
  const Provisioner solver(spec.config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, spec.popts);
  ClusterOptions cluster;
  cluster.num_servers = spec.config.max_servers;
  cluster.power = spec.config.power;
  cluster.transition = spec.config.transition;
  cluster.initial_active = spec.config.max_servers;
  cluster.dispatch_seed = 4242;
  SimulationOptions sim = spec.extra;
  sim.t_ref_s = spec.config.t_ref_s;
  sim.warmup_s = spec.popts.dcp.long_period_s;
  const SimResult seq = run_simulation(workload, cluster, *controller, sim);
  EXPECT_GT(seq.counters.counter_or("sim.events.arrival", 0), 0u);
  EXPECT_EQ(conservation_gap(seq.counters), 0u) << "sequential";
  EXPECT_LT(seq.completed_jobs, seq.counters.counter_or("sim.jobs.completed", 0));
}

// -- sequential engine stays untouched ---------------------------------------
//
// The sequential lossy-channel golden from tests/test_obs_determinism.cpp,
// re-asserted here so a sharded-core regression that leaks into shared code
// (event queue, channel, actuator, server) fails in this suite too.
TEST(ShardedDeterminism, SequentialLossyGoldenStillPinned) {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  popts.dcp = bench_dcp_params();
  popts.staleness.horizon_s = 60.0;
  const Scenario scenario = make_scenario(ScenarioKind::kDiurnal, config,
                                          /*level=*/0.7, /*seed=*/1234,
                                          /*day_s=*/2400.0);
  Workload workload = scenario.make_workload(config, /*seed=*/97);
  const Provisioner solver(config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, popts);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 4242;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = popts.dcp.long_period_s;
  sim.record_interval_s = 120.0;
  sim.faults.script = {{600.0, 0, 900.0},
                       {600.0, 1, 900.0},
                       {601.0, 2, 1200.0},
                       {1200.0, 3, std::numeric_limits<double>::infinity()}};
  sim.faults.seed = 99;
  sim.admission.enabled = true;
  sim.admission.mu_max = config.mu_max;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.05, 0.05, 0.1};
  sim.channel.command = {0.05, 0.05, 0.1};
  sim.channel.ack = {0.05, 0.05, 0.1};
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 2.0;
  sim.controller_faults.script = {{900.0, 120.0}};
  const SimResult result = run_simulation(workload, cluster, *controller, sim);
  EXPECT_EQ(checksum(result), 13159024489807549190ULL);
}

}  // namespace
}  // namespace gc
