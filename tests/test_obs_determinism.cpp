// Observability must be free of side effects: attaching the trace collector
// and the audit log to a run must leave every simulated quantity bit-equal
// to the untraced run — same RNG draws, same event order, same SimResult.
// The traced run is pinned against the same golden checksum as
// tests/test_determinism_golden.cpp, so a regression here fails loudly even
// if both runs drift together.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "control/policies.h"
#include "cp/lifecycle.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulation.h"

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

// Identical to the golden checksum: every scalar plus the timeline, and
// deliberately NOT the counters snapshot (the "obs.*" counters describe the
// instrumentation itself, which legitimately differs with tracing on/off).
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

// Same fixed-seed setup as tests/test_determinism_golden.cpp.  `extra`
// lets individual tests layer faults / admission / control-plane options
// onto the golden configuration (defaults keep the historical behavior).
struct GoldenRun {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  Scenario scenario;
  SimulationOptions extra;

  GoldenRun() {
    popts.dcp = bench_dcp_params();
    scenario = make_scenario(ScenarioKind::kDiurnal, config, /*level=*/0.7,
                             /*seed=*/1234, /*day_s=*/2400.0);
  }

  [[nodiscard]] SimResult run(TraceCollector* trace, DecisionAuditLog* audit,
                              TimeSeriesRecorder* timeseries = nullptr) {
    Workload workload = scenario.make_workload(config, /*seed=*/97);
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
    sim.trace = trace;
    sim.audit = audit;
    sim.timeseries = timeseries;
    return run_simulation(workload, cluster, *controller, sim);
  }
};

// The counters snapshot is compared separately: everything outside the
// "obs." namespace must match exactly.
bool counters_match_outside_obs(const CountersSnapshot& a, const CountersSnapshot& b) {
  const auto is_obs = [](std::string_view name) { return name.starts_with("obs."); };
  for (const auto& [name, value] : a.counters) {
    if (!is_obs(name) && b.counter_or(name, value + 1) != value) return false;
  }
  for (const auto& [name, value] : b.counters) {
    if (!is_obs(name) && a.counter_or(name, value + 1) != value) return false;
  }
  return true;
}

TEST(ObsDeterminism, TracingOnAndOffProduceIdenticalResults) {
  GoldenRun golden;
  TraceCollector trace;
  DecisionAuditLog audit;
  const SimResult traced = golden.run(&trace, &audit);
  const SimResult untraced = golden.run(nullptr, nullptr);
  EXPECT_EQ(checksum(traced), checksum(untraced));
  EXPECT_TRUE(counters_match_outside_obs(traced.counters, untraced.counters));
  if constexpr (kTracingCompiledIn) {
    EXPECT_GT(trace.emitted(), 0u);
    EXPECT_FALSE(audit.empty());
  }
}

// Pinned to the PR 2 golden: a traced run reproduces the pre-observability
// simulator bit-for-bit.  If this fails together with DeterminismGolden,
// the simulator changed; if it fails alone, the instrumentation leaked into
// simulation behavior.
TEST(ObsDeterminism, TracedRunMatchesPinnedGolden) {
  GoldenRun golden;
  TraceCollector trace;
  DecisionAuditLog audit;
  const SimResult traced = golden.run(&trace, &audit);
  EXPECT_EQ(checksum(traced), 7698358306312404789ULL);
}

// A saturated ring (tiny capacity, guaranteed overwrites) is still free of
// side effects — eviction happens inside the collector only.
TEST(ObsDeterminism, RingOverflowDoesNotPerturbTheRun) {
  GoldenRun golden;
  TraceOptions tiny;
  tiny.capacity = 16;
  TraceCollector trace(tiny);
  const SimResult traced = golden.run(&trace, nullptr);
  EXPECT_EQ(checksum(traced), 7698358306312404789ULL);
  if constexpr (kTracingCompiledIn) {
    EXPECT_GT(trace.dropped(), 0u);
    EXPECT_EQ(trace.size(), 16u);
  }
}

// Two identical runs produce identical snapshots, including "obs.*": the
// counters themselves are deterministic, only the on/off contrast exempts
// them above.
TEST(ObsDeterminism, CountersSnapshotIsRunToRunDeterministic) {
  GoldenRun golden;
  TraceCollector t1, t2;
  DecisionAuditLog a1, a2;
  const SimResult r1 = golden.run(&t1, &a1);
  const SimResult r2 = golden.run(&t2, &a2);
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(a1.to_jsonl(), a2.to_jsonl());
  if constexpr (kTracingCompiledIn) {
    EXPECT_EQ(t1.to_chrome_json(), t2.to_chrome_json());
  }
}

// The control-plane degradation layer's determinism contract: a
// zero-loss/zero-latency channel with the ack/retry actuator and the
// watchdog armed consumes no randomness and schedules no extra events, so
// the run reproduces the PR 2 golden bit-for-bit.  The stale-telemetry
// guard is enabled too — with synchronous delivery every observation has
// age 0 and the guard must be the exact identity.
TEST(ObsDeterminism, PerfectChannelWithActuatorMatchesPinnedGolden) {
  GoldenRun golden;
  golden.extra.channel.enabled = true;  // all links at zero loss / latency
  golden.extra.actuator.enabled = true;
  golden.popts.staleness.horizon_s = 60.0;
  const SimResult result = golden.run(nullptr, nullptr);
  EXPECT_EQ(checksum(result), 7698358306312404789ULL);
  EXPECT_EQ(result.command_retries, 0u);
  EXPECT_EQ(result.telemetry_dropped, 0u);
  EXPECT_EQ(result.ticks_missed, 0u);
  // Every command was delivered and acked synchronously.
  EXPECT_EQ(result.counters.counter_or("act.retries", 99), 0u);
  EXPECT_GT(result.counters.counter_or("act.acked", 0), 0u);
}

// Pinned golden for the degraded path itself: scripted data-plane faults +
// admission control (the PR 1 golden configuration) plus a lossy, latent
// control channel with retries and a scripted controller outage.  Pins the
// full fault stack — any drift in channel sampling, retry scheduling, era
// handling or watchdog behavior lands here.
// The lossy control-plane stack of FaultsAdmissionChannelGoldenIsPinned,
// shared with the time-series variants below.
GoldenRun make_lossy_golden() {
  GoldenRun golden;
  golden.extra.faults.script = {{600.0, 0, 900.0},
                                {600.0, 1, 900.0},
                                {601.0, 2, 1200.0},
                                {1200.0, 3, std::numeric_limits<double>::infinity()}};
  golden.extra.faults.seed = 99;
  golden.extra.admission.enabled = true;
  golden.extra.admission.mu_max = golden.config.mu_max;
  golden.extra.channel.enabled = true;
  golden.extra.channel.telemetry = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                                    /*latency_jitter_s=*/0.1};
  golden.extra.channel.command = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                                  /*latency_jitter_s=*/0.1};
  golden.extra.channel.ack = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                              /*latency_jitter_s=*/0.1};
  golden.extra.actuator.enabled = true;
  golden.extra.actuator.ack_timeout_s = 2.0;
  golden.extra.controller_faults.script = {{900.0, 120.0}};
  golden.popts.staleness.horizon_s = 60.0;
  return golden;
}

TEST(ObsDeterminism, FaultsAdmissionChannelGoldenIsPinned) {
  GoldenRun golden = make_lossy_golden();
  const SimResult result = golden.run(nullptr, nullptr);
  EXPECT_EQ(checksum(result), 4901449984472170482ULL);
  // The degraded path actually exercised what it pins.
  EXPECT_GT(result.telemetry_dropped, 0u);
  EXPECT_GT(result.commands_dropped, 0u);
  EXPECT_GT(result.command_retries, 0u);
  EXPECT_GT(result.ticks_missed, 0u);
  EXPECT_EQ(result.safe_mode_entries, 1u);
}

// The channel golden is observability-independent like every other run:
// tracing it changes nothing.
TEST(ObsDeterminism, DegradedChannelRunIsTraceIndependent) {
  GoldenRun golden;
  golden.extra.channel.enabled = true;
  golden.extra.channel.command = {/*drop_prob=*/0.1, /*latency_base_s=*/0.2,
                                  /*latency_jitter_s=*/0.3};
  golden.extra.actuator.enabled = true;
  TraceCollector trace;
  DecisionAuditLog audit;
  const SimResult traced = golden.run(&trace, &audit);
  const SimResult untraced = golden.run(nullptr, nullptr);
  EXPECT_EQ(checksum(traced), checksum(untraced));
  EXPECT_TRUE(counters_match_outside_obs(traced.counters, untraced.counters));
}

// The time-series recorder obeys the same contract as the trace collector:
// attaching it to the clean golden changes nothing, so the recorded run
// reproduces the PR 2 checksum bit-for-bit and the recorder actually saw
// every control instant.
TEST(ObsDeterminism, TimeSeriesRecorderMatchesPinnedGolden) {
  GoldenRun golden;
  TimeSeriesRecorder timeseries;
  const SimResult recorded = golden.run(nullptr, nullptr, &timeseries);
  EXPECT_EQ(checksum(recorded), 7698358306312404789ULL);
  EXPECT_GT(timeseries.periods(), 0u);
  EXPECT_EQ(timeseries.periods(),
            recorded.counters.counter_or("obs.timeseries.periods", 0));
  EXPECT_EQ(timeseries.size(),
            recorded.counters.counter_or("obs.timeseries.rows", 0));
}

// And the degraded-path golden: recording the lossy channel/faults/admission
// run must not shift a single RNG draw or retry timer.  This is the pin the
// issue asks for — the recorder samples channel counters and actuator state
// every tick, all read-only.
TEST(ObsDeterminism, TimeSeriesEnabledLossyRunMatchesPinnedGolden) {
  GoldenRun golden = make_lossy_golden();
  TimeSeriesRecorder timeseries;
  const SimResult recorded = golden.run(nullptr, nullptr, &timeseries);
  EXPECT_EQ(checksum(recorded), 4901449984472170482ULL);

  GoldenRun plain = make_lossy_golden();
  const SimResult unrecorded = plain.run(nullptr, nullptr);
  EXPECT_TRUE(counters_match_outside_obs(recorded.counters, unrecorded.counters));

  // The recorded trajectory localizes the degradation the run-level totals
  // only sum: period-level drop/retry/missed-tick deltas add back up to the
  // SimResult counters.
  const auto column_sum = [&](TimeSeriesRecorder::Col col) {
    double total = 0.0;
    for (std::size_t row = 0; row < timeseries.size(); ++row) {
      total += timeseries.value(col, row);
    }
    return static_cast<std::uint64_t>(total);
  };
  EXPECT_EQ(column_sum(TimeSeriesRecorder::kDTelemetryDropped),
            recorded.telemetry_dropped);
  EXPECT_EQ(column_sum(TimeSeriesRecorder::kDCommandsDropped),
            recorded.commands_dropped);
  EXPECT_EQ(column_sum(TimeSeriesRecorder::kDCmdRetries), recorded.command_retries);
  EXPECT_EQ(column_sum(TimeSeriesRecorder::kDTicksMissed), recorded.ticks_missed);
  // Safe mode was entered, and the recorder saw it.
  double safe_rows = 0.0;
  for (std::size_t row = 0; row < timeseries.size(); ++row) {
    safe_rows += timeseries.value(TimeSeriesRecorder::kSafeMode, row);
  }
  EXPECT_GT(safe_rows, 0.0);
}

// Recorder on/off is a pure observation contrast on the lossy path too:
// identical checksums and identical non-obs counters, twice over.
TEST(ObsDeterminism, LossyRunIsTimeSeriesIndependent) {
  GoldenRun with = make_lossy_golden();
  TimeSeriesRecorder timeseries;
  const SimResult recorded = with.run(nullptr, nullptr, &timeseries);
  GoldenRun without = make_lossy_golden();
  const SimResult unrecorded = without.run(nullptr, nullptr);
  EXPECT_EQ(checksum(recorded), checksum(unrecorded));
  EXPECT_TRUE(counters_match_outside_obs(recorded.counters, unrecorded.counters));
}

// FNV-1a over the bytes of a rendered artifact.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Byte-level pin of every rendered artifact.  The checksums above pin
// SimResult only; this pins what --trace-out / --timeseries-out write: the
// Chrome trace (a default ring, and a small ring that wraps), the audit
// JSONL and CSV, the time series as CSV and JSON, the counters snapshot,
// the command lifecycles and the Prometheus exposition.  The lossy stack
// makes retransmits, drops and safe mode show up in the text.  A change to
// any number writer that moves a byte fails here.
TEST(ObsDeterminism, RenderedArtifactBytesArePinned) {
  if constexpr (!kTracingCompiledIn) {
    GTEST_SKIP() << "trace artifacts are empty with tracing compiled out";
  }
  GoldenRun golden = make_lossy_golden();
  TraceCollector trace;
  DecisionAuditLog audit;
  TimeSeriesRecorder timeseries;
  const SimResult r = golden.run(&trace, &audit, &timeseries);

  GoldenRun wrapped_run = make_lossy_golden();
  TraceOptions small;
  small.capacity = 257;
  TraceCollector wrapped(small);
  (void)wrapped_run.run(&wrapped, nullptr);
  ASSERT_GT(wrapped.dropped(), 0u);
  ASSERT_FALSE(r.command_lifecycles.empty());

  CountersSnapshot snap = r.counters;
  snap.add_counter("obs.trace.records", trace.size());
  snap.add_counter("obs.trace.dropped", trace.dropped());
  std::ostringstream lifecycle;
  write_lifecycle_jsonl(lifecycle, r.command_lifecycles);

  struct Pin {
    const char* what;
    std::string text;
    std::uint64_t hash;
    std::size_t bytes;
  };
  const Pin pins[] = {
      {"trace", trace.to_chrome_json(), 4239001005843072152ULL, 679774},
      {"trace (wrapped ring)", wrapped.to_chrome_json(), 484027128091814379ULL, 30529},
      {"audit jsonl", audit.to_jsonl(), 13031552830012359260ULL, 295114},
      {"audit csv", to_csv_text(audit.to_csv_table()), 5755293311217953368ULL,
       40993},
      {"timeseries csv", to_csv_text(timeseries.to_csv_table()),
       5827889155092280114ULL, 88595},
      {"counters json", snap.to_json(), 8903481156749187791ULL, 2983},
      {"lifecycle jsonl", std::move(lifecycle).str(), 6951017864923093123ULL, 120019},
      {"prometheus",
       to_prometheus_text(r.counters,
                          {{"response_time_seconds", &r.response_hist},
                           {"cp.lifecycle.ack_latency_seconds", &r.lifecycle_ack_hist},
                           {"cp.lifecycle.apply_latency_seconds", &r.lifecycle_apply_hist},
                           {"cp.lifecycle.e2e_seconds", &r.lifecycle_e2e_hist},
                           {"cp.lifecycle.obs_age_seconds", &r.lifecycle_obs_age_hist}}),
       14137080547309991805ULL, 81707},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.what);
    EXPECT_EQ(fnv1a(pin.text), pin.hash);
    EXPECT_EQ(pin.text.size(), pin.bytes);
  }
}

}  // namespace
}  // namespace gc
