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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/policies.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/timeseries.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "support/outage_script.h"
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
// combined DCP policy (by default) over a concrete arrival trace sampled
// once from a scenario profile (every K replays the *same* arrivals).
struct ShardedRun {
  ClusterConfig config = bench_cluster_config();
  PolicyKind policy = PolicyKind::kCombinedDcp;
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
    const auto controller = make_policy(policy, &solver, popts);
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
// the ack/retry actuator.  (No controller outages; make_outage_run adds
// them.)
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

// The sequential engine on the same cluster, controller and options as a
// ShardedRun (its own workload stream, so the numbers differ).
SimResult run_sequential_twin(const ShardedRun& spec, DecisionAuditLog* audit = nullptr) {
  Workload workload = spec.scenario.make_workload(spec.config, spec.workload_seed);
  const Provisioner solver(spec.config);
  const auto controller = make_policy(spec.policy, &solver, spec.popts);
  ClusterOptions cluster;
  cluster.num_servers = spec.config.max_servers;
  cluster.power = spec.config.power;
  cluster.transition = spec.config.transition;
  cluster.initial_active = spec.config.max_servers;
  cluster.dispatch_seed = 4242;
  SimulationOptions sim = spec.extra;
  sim.t_ref_s = spec.config.t_ref_s;
  sim.warmup_s = spec.popts.dcp.long_period_s;
  sim.audit = audit;
  return run_simulation(workload, cluster, *controller, sim);
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

  const SimResult seq = run_sequential_twin(spec);
  EXPECT_GT(seq.counters.counter_or("sim.events.arrival", 0), 0u);
  EXPECT_EQ(conservation_gap(seq.counters), 0u) << "sequential";
  EXPECT_LT(seq.completed_jobs, seq.counters.counter_or("sim.jobs.completed", 0));
}

// Both engines run one fault plane (sim/fault_injector.h), so a scripted
// schedule, and a background process on the same seed, crash and repair
// the same servers in both.  NPM keeps the
// whole fleet committed, so a repaired server boots again in both engines
// (at once in a shard, at the next long tick in the sequential engine).
TEST(ShardedDeterminism, BothEnginesAgreeOnAScriptedFaultSchedule) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  ShardedRun spec;
  spec.policy = PolicyKind::kNpm;
  spec.extra.faults.script = {
      {600.0, 2, 300.0},   // repaired at 900, booted again by 933 in both
      {700.0, 4, kNever},  // never repaired
      {800.0, 4, 50.0},    // finds server 4 already FAILED: dropped
      {1000.0, 2, 200.0},  // the same server again, after its reboot
  };
  const auto faults_of = [](const SimResult& r) {
    return std::vector<std::uint64_t>{r.counters.counter_or("cluster.failures", 0),
                                      r.counters.counter_or("cluster.repairs", 0),
                                      r.counters.counter_or("cluster.boot_timeouts", 0)};
  };
  const std::vector<std::uint64_t> sequential = faults_of(run_sequential_twin(spec));
  EXPECT_EQ(sequential, (std::vector<std::uint64_t>{3, 2, 0}));
  for (const unsigned k : {1u, 3u}) {
    EXPECT_EQ(faults_of(spec.run(k, nullptr, nullptr)), sequential) << "K=" << k;
  }

  // Background faults: both engines draw server gi's failure clock from
  // Rng(seed, gi).  NPM keeps every server powered and no repair lands
  // inside the run, so each server fails at most once, at the same instant
  // in both engines: the failure count and the available count seen at
  // every control tick agree.  (Repairs are left out: a repaired server
  // reboots at once in a shard but at the next long tick in the sequential
  // engine.)
  ShardedRun background;
  background.policy = PolicyKind::kNpm;
  background.extra.faults.mtbf_s = 6000.0;
  background.extra.faults.mttr_s = 1e9;
  background.extra.faults.seed = 31;
  const auto available_per_tick = [](const DecisionAuditLog& audit) {
    std::vector<unsigned> available;
    for (const AuditRecord& rec : audit.records()) available.push_back(rec.available);
    return available;
  };
  DecisionAuditLog seq_audit;
  const std::vector<std::uint64_t> seq_background =
      faults_of(run_sequential_twin(background, &seq_audit));
  const std::vector<unsigned> seq_available = available_per_tick(seq_audit);
  EXPECT_GT(seq_background[0], 2u);
  EXPECT_LT(seq_background[0], background.config.max_servers);
  EXPECT_EQ(seq_background[1], 0u);
  for (const unsigned k : {1u, 3u}) {
    DecisionAuditLog audit;
    EXPECT_EQ(faults_of(background.run(k, &audit, nullptr)), seq_background)
        << "K=" << k;
    // The sequential run ends at its last departure, just before the
    // sharded run's horizon: compare the ticks both engines ran.
    std::vector<unsigned> available = available_per_tick(audit);
    ASSERT_GE(available.size(), seq_available.size()) << "K=" << k;
    available.resize(seq_available.size());
    EXPECT_EQ(available, seq_available) << "K=" << k;
  }
}

// -- controller outages ------------------------------------------------------
//
// The degraded run plus a failing controller: a scripted outage long enough
// to trip the watchdog into safe mode, and a drawn fail-stop chain on top
// (five outages at arbitrary phases of the control cycle, the first,
// at ~500 s, overlapping the 600 s window).  Outages, safe mode
// and every recovery mode run in the shared control loop on the
// orchestrator thread, so the run stays K-invariant.
ShardedRun make_outage_run(ControllerRecoveryMode mode) {
  ShardedRun r = make_degraded_run();
  r.extra.controller_faults.script = {{600.0, 120.0}, {1500.0, 60.0}};
  for (const ControllerOutage& outage : random_outages(
           /*seed=*/21, /*mtbf_s=*/700.0, /*mttr_s=*/90.0, r.scenario.horizon_s)) {
    r.extra.controller_faults.script.push_back(outage);
  }
  r.extra.controller_faults.safe_mode = true;
  r.extra.controller_faults.recovery = mode;
  return r;
}

TEST(ShardedDeterminism, ControllerOutagesAreShardCountInvariant) {
  std::uint64_t preserve_sum = 0;
  for (const ControllerRecoveryMode mode :
       {ControllerRecoveryMode::kPreserve, ControllerRecoveryMode::kWarmRestart,
        ControllerRecoveryMode::kColdRestart}) {
    const ShardedRun spec = make_outage_run(mode);
    const std::string tag = "outage" + std::to_string(static_cast<int>(mode));
    const RunArtifacts base = run_with_sinks(spec, 1, tag);
    EXPECT_GT(base.result.safe_mode_entries, 0u) << "mode " << static_cast<int>(mode);
    EXPECT_GT(base.result.ticks_missed, 0u);
    for (const unsigned k : {3u, 8u}) {
      const RunArtifacts other = run_with_sinks(spec, k, tag);
      EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
      EXPECT_EQ(layout_free(base.result.counters), layout_free(other.result.counters))
          << "counters diverged at K=" << k;
      EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
      EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
    }
    // A warm restart is a state transplant: bit-identical to preserve.
    if (mode == ControllerRecoveryMode::kPreserve) preserve_sum = base.sum;
    if (mode == ControllerRecoveryMode::kWarmRestart) {
      EXPECT_EQ(base.sum, preserve_sum);
    }
  }
}

// -- one metric namespace ----------------------------------------------------
//
// Both engines drive the same control loop, so a lossy run exports the same
// chan.*, act.* and cp.* names from either engine.
std::set<std::string> control_plane_names(const CountersSnapshot& c) {
  std::set<std::string> names;
  const auto keep = [&](const std::string& name) {
    if (name.starts_with("chan.") || name.starts_with("act.") ||
        name.starts_with("cp.")) {
      names.insert(name);
    }
  };
  for (const auto& entry : c.counters) keep(entry.first);
  for (const auto& entry : c.gauges) keep(entry.first);
  return names;
}

TEST(ShardedDeterminism, BothEnginesExportOneControlPlaneNamespace) {
  const ShardedRun spec = make_degraded_run();
  const std::set<std::string> sharded =
      control_plane_names(spec.run(2, nullptr, nullptr).counters);
  EXPECT_TRUE(sharded.contains("cp.ticks"));
  EXPECT_TRUE(sharded.contains("cp.commands.issued"));
  EXPECT_TRUE(sharded.contains("cp.telemetry.accepted"));
  EXPECT_TRUE(sharded.contains("chan.telemetry.sent"));
  EXPECT_TRUE(sharded.contains("act.retries"));
  EXPECT_EQ(sharded, control_plane_names(run_sequential_twin(spec).counters));
}

// -- strided ownership on a ragged fleet --------------------------------------
//
// Shard k owns gi ≡ k (mod K).  M = 37 is prime, so every K > 1 leaves
// shards of unequal size, and the serving sets below have holes (crashed
// servers) on different shards.  The frozen round-robin ranks are rebuilt
// by merging the shards' serving lists, so this is where a merge bug would
// show as a K-dependent assignment.
constexpr unsigned kRaggedServers = 37;
constexpr unsigned kRaggedShardCounts[] = {1, 2, 3, 5, 8};

TEST(ShardedDeterminism, StridedLayoutMapsEveryServerToOneSlot) {
  for (const unsigned num_shards : kRaggedShardCounts) {
    const ShardLayout layout{num_shards, kRaggedServers};
    std::vector<int> hits(kRaggedServers, 0);
    unsigned owned_total = 0;
    for (unsigned k = 0; k < num_shards; ++k) {
      owned_total += layout.owned(k);
      for (std::uint32_t li = 0; li < layout.owned(k); ++li) {
        const std::uint32_t gi = layout.global_of(k, li);
        ASSERT_LT(gi, kRaggedServers) << "K=" << num_shards;
        ++hits[gi];
        EXPECT_EQ(layout.shard_of(gi), k);
        EXPECT_EQ(layout.local_of(gi), li);
      }
    }
    EXPECT_EQ(owned_total, kRaggedServers) << "K=" << num_shards;
    for (std::uint32_t gi = 0; gi < kRaggedServers; ++gi) {
      EXPECT_EQ(hits[gi], 1) << "server " << gi << " at K=" << num_shards;
    }
    // Every committed prefix [0, bound) splits into owned prefixes.
    for (unsigned bound = 0; bound <= kRaggedServers; ++bound) {
      unsigned split_total = 0;
      for (unsigned k = 0; k < num_shards; ++k) {
        const std::uint32_t split = layout.owned_below(k, bound);
        split_total += split;
        if (split > 0) {
          EXPECT_LT(layout.global_of(k, split - 1), bound);
        }
        if (split < layout.owned(k)) {
          EXPECT_GE(layout.global_of(k, split), bound);
        }
      }
      EXPECT_EQ(split_total, bound) << "K=" << num_shards;
    }
  }
}

// A fixed target path through the control loop: all on, consolidate to a
// 3-server prefix, grow to 29, then shrink to 11.  Short ticks alternate
// the speed, so dark servers lag the speed log.
class TargetPathController final : public Controller {
 public:
  [[nodiscard]] double short_period_s() const override { return 5.0; }
  [[nodiscard]] double long_period_s() const override { return 20.0; }
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override {
    ControlAction action;
    action.speed = static_cast<long>(ctx.now / 5.0) % 3 == 0 ? 0.8 : 1.0;
    return action;
  }
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override {
    ControlAction action = on_short_tick(ctx);
    action.active_target = ctx.now < 60.0    ? kRaggedServers
                           : ctx.now < 160.0 ? 3u
                           : ctx.now < 240.0 ? 29u
                                             : 11u;
    return action;
  }
  [[nodiscard]] const char* name() const override { return "target-path"; }
};

RunArtifacts run_ragged(unsigned num_shards) {
  ClusterConfig config = bench_cluster_config();
  config.max_servers = kRaggedServers;
  // Gated power: a server's draw moves when it flips idle <-> busy, so the
  // power column's refresh on those flips is exercised (and DCHECKed).
  config.power.utilization_gated = true;
  const PiecewiseLinearRate profile({{0.0, 20.0}, {320.0, 20.0}});
  const Trace trace = Trace::from_profile(profile, 320.0, /*seed=*/41);
  const Distribution job_size = Distribution::exponential(config.mu_max);
  TargetPathController controller;
  ClusterOptions cluster;
  cluster.num_servers = kRaggedServers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = kRaggedServers;
  cluster.dispatch_seed = 606;
  DecisionAuditLog audit;
  TimeSeriesRecorder timeseries;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = 20.0;
  sim.record_interval_s = 10.0;
  sim.audit = &audit;
  sim.timeseries = &timeseries;
  const double inf = std::numeric_limits<double>::infinity();
  sim.faults.script = {{30.0, 36, 40.0},    // the ragged tail, all-on phase
                       {90.0, 1, 30.0},     // holes in the 3-server prefix
                       {100.0, 2, 200.0},
                       {130.0, 0, 10.0},
                       {200.0, 17, 20.0},   // holes in the grown prefix
                       {200.0, 22, inf},
                       {210.0, 28, 15.0}};
  ShardedOptions sharded;
  sharded.num_shards = num_shards;
  RunArtifacts out;
  out.result = run_sharded_simulation(trace, job_size, /*workload_seed=*/29, cluster,
                                      controller, sim, sharded);
  out.sum = checksum(out.result);
  out.audit_jsonl = audit.to_jsonl();
  out.ts_csv = csv_bytes(timeseries, "ragged_k" + std::to_string(num_shards));
  return out;
}

TEST(ShardedDeterminism, RaggedFleetWithHolesIsShardCountInvariant) {
  const RunArtifacts base = run_ragged(1);
  // The run took the path it claims: consolidated to the small prefix,
  // grew past 25, and crashed servers inside both prefixes.
  unsigned min_serving = kRaggedServers;
  unsigned max_after = 0;
  for (const TimelinePoint& p : base.result.timeline) {
    if (p.time > 60.0 && p.time < 160.0) min_serving = std::min(min_serving, p.serving);
    if (p.time > 200.0 && p.time < 240.0) max_after = std::max(max_after, p.serving);
  }
  EXPECT_LE(min_serving, 2u);
  EXPECT_GE(max_after, 25u);
  EXPECT_GE(base.result.counters.counter_or("cluster.failures", 0), 6u);
  EXPECT_GT(base.result.completed_jobs, 0u);
  for (const unsigned k : kRaggedShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_ragged(k);
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(layout_free(base.result.counters), layout_free(other.result.counters))
        << "counters diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
  }
}

// A scripted fault naming a server outside the fleet is a configuration
// error in both engines, with the same message.
TEST(ShardedDeterminism, OutOfRangeScriptedFaultThrowsInBothEngines) {
  ShardedRun spec;
  spec.extra.faults.script = {{10.0, spec.config.max_servers, 5.0}};
  const auto message_of = [](const auto& run) {
    try {
      (void)run();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  const std::string sharded = message_of([&] { return spec.run(2, nullptr, nullptr); });
  const std::string sequential = message_of([&] { return run_sequential_twin(spec); });
  EXPECT_NE(sharded.find("scripted fault targets server 16 of 16"), std::string::npos)
      << sharded;
  EXPECT_EQ(sharded, sequential);
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
  EXPECT_EQ(checksum(result), 4901449984472170482ULL);
}

}  // namespace
}  // namespace gc
