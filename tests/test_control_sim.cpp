// End-to-end simulation tests for the degraded control plane: channel
// loss/latency plumbing, ack/retry actuation over a lossy channel,
// stale-telemetry handling, watchdog safe-mode failover during controller
// outages, era gating of stale in-flight commands, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "control/policies.h"
#include "obs/audit.h"
#include "sim/simulation.h"
#include "support/outage_script.h"
#include "workload/workload.h"

namespace gc {
namespace {

ClusterConfig config8() {
  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

SimResult run(PolicyKind kind, SimulationOptions sim, double rate,
              double horizon, PolicyOptions popts = {},
              DecisionAuditLog* audit = nullptr) {
  const ClusterConfig config = config8();
  const Provisioner provisioner(config);
  const auto controller = make_policy(kind, &provisioner, popts);
  Workload workload =
      Workload::poisson_exponential(rate, config.mu_max, horizon, /*seed=*/3);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 11;
  sim.t_ref_s = config.t_ref_s;
  sim.audit = audit;
  return run_simulation(workload, cluster, *controller, sim);
}

TEST(ControlSim, PerfectChannelMatchesLegacyPathUnderFaults) {
  // Channel + actuator enabled at zero loss/latency reproduce the direct
  // path event-for-event, even with data-plane faults and admission in the
  // mix — the full draw-only-when-needed contract.
  SimulationOptions plain;
  plain.faults.mtbf_s = 300.0;
  plain.faults.mttr_s = 60.0;
  plain.faults.seed = 5;
  plain.admission.enabled = true;
  plain.admission.mu_max = 10.0;
  SimulationOptions channeled = plain;
  channeled.channel.enabled = true;
  channeled.actuator.enabled = true;
  const SimResult a = run(PolicyKind::kCombinedDcp, plain, 20.0, 1500.0);
  const SimResult b = run(PolicyKind::kCombinedDcp, channeled, 20.0, 1500.0);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.shed_jobs, b.shed_jobs);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
  EXPECT_EQ(b.command_retries, 0u);
  EXPECT_EQ(b.commands_dropped, 0u);
  EXPECT_EQ(b.telemetry_dropped, 0u);
}

TEST(ControlSim, LossyChannelDropsAndRetriesAreAccounted) {
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.2, 0.1, 0.5};
  sim.channel.command = {0.2, 0.1, 0.5};
  sim.channel.ack = {0.2, 0.1, 0.5};
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 5.0;
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 2000.0);
  EXPECT_GT(result.completed_jobs, 10000u);
  EXPECT_GT(result.telemetry_dropped, 0u);
  EXPECT_GT(result.commands_dropped, 0u);
  EXPECT_GT(result.acks_dropped, 0u);
  // A dropped command (or dropped ack) must eventually retransmit.
  EXPECT_GT(result.command_retries, 0u);
  // Retransmits of applied commands surface as fleet-side duplicates.
  EXPECT_GT(result.command_duplicates, 0u);
  EXPECT_GT(result.counters.counter_or("act.acked", 0), 0u);
  EXPECT_GT(result.counters.counter_or("chan.command.sent", 0),
            result.commands_dropped);
  EXPECT_TRUE(std::isfinite(result.mean_response_s));
}

TEST(ControlSim, LossyRunsAreBitwiseReproducible) {
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.1, 0.2, 0.3};
  sim.channel.command = {0.1, 0.2, 0.3};
  sim.channel.ack = {0.1, 0.2, 0.3};
  sim.actuator.enabled = true;
  sim.controller_faults.script =
      random_outages(/*seed=*/11, /*mtbf_s=*/600.0, /*mttr_s=*/90.0, 1500.0);
  const SimResult a = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  const SimResult b = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.telemetry_dropped, b.telemetry_dropped);
  EXPECT_EQ(a.command_retries, b.command_retries);
  EXPECT_EQ(a.ticks_missed, b.ticks_missed);
  EXPECT_EQ(a.safe_mode_entries, b.safe_mode_entries);
  EXPECT_DOUBLE_EQ(a.safe_mode_time_s, b.safe_mode_time_s);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(ControlSim, ChannelSeedVariesTheLossHistory) {
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.command = {0.3, 0.0, 0.0};
  sim.actuator.enabled = true;
  SimulationOptions reseeded = sim;
  reseeded.channel.seed = 777;
  const SimResult a = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  const SimResult b = run(PolicyKind::kCombinedDcp, reseeded, 20.0, 1500.0);
  EXPECT_NE(a.commands_dropped, b.commands_dropped);
}

TEST(ControlSim, LatentTelemetryAgesTheControllerView) {
  // With a 10 s telemetry delay every control tick plans on an old sample;
  // the audit trail records the age the policy actually saw.
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.0, 10.0, 0.0};
  DecisionAuditLog audit;
  const SimResult result =
      run(PolicyKind::kCombinedDcp, sim, 20.0, 1200.0, {}, &audit);
  EXPECT_GT(result.completed_jobs, 10000u);
  ASSERT_FALSE(audit.empty());
  bool saw_aged = false;
  for (const AuditRecord& r : audit.records()) {
    EXPECT_GE(r.obs_age_s, 0.0);
    if (r.obs_age_s >= 10.0) saw_aged = true;
  }
  EXPECT_TRUE(saw_aged);
}

TEST(ControlSim, StalenessGuardKeepsPolicyFunctionalUnderTelemetryBlackout) {
  // 90% telemetry loss with multi-minute latency: most ticks plan on stale
  // observations.  The staleness guard holds the last good estimate and
  // widens the margin instead of chasing a dead sample.
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.9, 30.0, 60.0};
  PolicyOptions popts;
  popts.staleness.horizon_s = 45.0;
  DecisionAuditLog audit;
  const SimResult result =
      run(PolicyKind::kCombinedDcp, sim, 20.0, 2000.0, popts, &audit);
  EXPECT_GT(result.completed_jobs, 10000u);
  EXPECT_GT(result.telemetry_dropped, 0u);
  EXPECT_TRUE(std::isfinite(result.mean_response_s));
  // The widened margin (1.15 * 1.25) is visible in the audited planning
  // state.
  bool saw_widened = false;
  for (const AuditRecord& r : audit.records()) {
    if (r.obs_age_s > 45.0 && r.safety_margin > 1.4) saw_widened = true;
  }
  EXPECT_TRUE(saw_widened);
}

TEST(ControlSim, ScriptedOutageTripsWatchdogIntoSafeMode) {
  // Controller dark from t=400 to t=700.  With 30 s short ticks the
  // watchdog (3 misses) trips around t=480; safe mode turns everything on
  // at nominal frequency, so service continues at full capacity.
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.actuator.enabled = true;
  sim.controller_faults.script = {{400.0, 300.0}};
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  EXPECT_EQ(result.safe_mode_entries, 1u);
  EXPECT_GE(result.ticks_missed, 3u);
  EXPECT_GT(result.safe_mode_time_s, 100.0);
  EXPECT_LT(result.safe_mode_time_s, 600.0);
  EXPECT_GT(result.completed_jobs, 10000u);
  EXPECT_EQ(result.dropped_jobs, 0u);
  EXPECT_TRUE(std::isfinite(result.mean_response_s));
  EXPECT_EQ(result.counters.counter_or("control.safe_mode_entries", 0), 1u);
  EXPECT_EQ(result.counters.counter_or("control.ticks_missed", 0),
            result.ticks_missed);
}

TEST(ControlSim, SafeModeOffOnlyCounts) {
  SimulationOptions sim;
  sim.controller_faults.script = {{400.0, 300.0}};
  sim.controller_faults.safe_mode = false;
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  EXPECT_GE(result.ticks_missed, 3u);
  EXPECT_EQ(result.safe_mode_entries, 0u);
  EXPECT_DOUBLE_EQ(result.safe_mode_time_s, 0.0);
  EXPECT_GT(result.completed_jobs, 10000u);
}

TEST(ControlSim, StaleEraCommandsAreRejectedDuringSafeMode) {
  // A 100 s command latency puts every pre-outage command in flight long
  // enough to land after the watchdog trips (~t=480); those carry the dead
  // incarnation's era and must be rejected, not applied.  The first
  // post-recovery command (fresh era) ends safe mode.
  SimulationOptions sim;
  sim.channel.enabled = true;
  sim.channel.command = {0.0, 100.0, 0.0};
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 500.0;  // quiet retries; isolate era gating
  sim.controller_faults.script = {{400.0, 300.0}};
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 1500.0);
  EXPECT_EQ(result.safe_mode_entries, 1u);
  EXPECT_GT(result.counters.counter_or("act.rejected_era", 0), 0u);
  // Recovery at t=700, first tick ~720, delivery ~820: safe mode ends well
  // before the horizon.
  EXPECT_LT(result.safe_mode_time_s, 500.0);
  EXPECT_GT(result.completed_jobs, 10000u);
}

TEST(ControlSim, RandomControllerOutagesRecoverRepeatedly) {
  // Outages at arbitrary phases of the control cycle, drawn from a
  // fail-stop chain.
  SimulationOptions sim;
  sim.controller_faults.script =
      random_outages(/*seed=*/21, /*mtbf_s=*/300.0, /*mttr_s=*/120.0, 3000.0);
  const SimResult result = run(PolicyKind::kCombinedDcp, sim, 20.0, 3000.0);
  EXPECT_GT(result.ticks_missed, 0u);
  EXPECT_GE(result.safe_mode_entries, 2u);
  EXPECT_GT(result.safe_mode_time_s, 0.0);
  EXPECT_GT(result.completed_jobs, 20000u);
  EXPECT_TRUE(std::isfinite(result.mean_response_s));
}

TEST(ControlSim, InvalidOptionsThrowBeforeTheRunStarts) {
  {
    SimulationOptions sim;
    sim.channel.command.drop_prob = 1.0;  // severed link
    EXPECT_THROW(run(PolicyKind::kCombinedDcp, sim, 10.0, 100.0),
                 std::invalid_argument);
  }
  {
    SimulationOptions sim;
    sim.actuator.enabled = true;
    sim.actuator.ack_timeout_s = 0.0;
    EXPECT_THROW(run(PolicyKind::kCombinedDcp, sim, 10.0, 100.0),
                 std::invalid_argument);
  }
  {
    SimulationOptions sim;
    sim.controller_faults.script = {{100.0, -5.0}};
    EXPECT_THROW(run(PolicyKind::kCombinedDcp, sim, 10.0, 100.0),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace gc
