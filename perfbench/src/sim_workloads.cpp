// The three simulator workloads: dcday_seq and dcday_sinks (the fig 8
// datacenter day on the sequential engine, sinks off / on) and
// fleet_sharded (a diurnal day on a 131072-server fleet, sharded engine).
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "control/policies.h"
#include "core/provisioner.h"
#include "cp/lifecycle.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "util/csv.h"
#include "util/format.h"
#include "util/thread_pool.h"
#include "workload/rate_profile.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace gcbench {
namespace {

// What the traced passes add to a run: the control layer's self time and
// the solver's work, both read from outside the engine.
struct LayerTiming {
  double decide_s = 0.0;
  std::uint64_t ticks = 0;
  gc::SolverCacheStats cache;
};

// -- The observability sinks of dcday_sinks ----------------------------------

enum Artifact {
  kTrace,
  kAudit,
  kTimeseries,
  kCounters,
  kLifecycle,
  kPrometheus,
  kArtifacts
};
constexpr const char* kArtifactNames[kArtifacts] = {"trace",    "audit",     "timeseries",
                                                    "counters", "lifecycle", "prometheus"};

struct Sinks {
  gc::TraceCollector trace;
  gc::DecisionAuditLog audit;
  gc::TimeSeriesRecorder timeseries;

  void attach(gc::SimulationOptions& sim) {
    sim.trace = &trace;
    sim.audit = &audit;
    sim.timeseries = &timeseries;
  }
};

struct Rendered {
  std::size_t bytes[kArtifacts] = {};
  double seconds[kArtifacts] = {};
};

// Renders every artifact --trace-out + --timeseries-out write, to memory.
Rendered render(const Sinks& sinks, const gc::SimResult& r) {
  Rendered out;
  auto timed = [&out](Artifact a, auto&& make) {
    const auto t0 = Clock::now();
    const std::string text = make();
    out.seconds[a] += seconds_since(t0);
    out.bytes[a] += text.size();
  };
  timed(kTrace, [&] { return sinks.trace.to_chrome_json(); });
  timed(kAudit, [&] { return sinks.audit.to_jsonl(); });
  timed(kAudit, [&] { return gc::to_csv_text(sinks.audit.to_csv_table()); });
  timed(kTimeseries, [&] { return gc::to_csv_text(sinks.timeseries.to_csv_table()); });
  timed(kCounters, [&] {
    gc::CountersSnapshot snap = r.counters;
    snap.add_counter("obs.trace.records", sinks.trace.size());
    snap.add_counter("obs.trace.dropped", sinks.trace.dropped());
    return snap.to_json();
  });
  timed(kLifecycle, [&] {
    std::ostringstream os;
    gc::write_lifecycle_jsonl(os, r.command_lifecycles);
    return std::move(os).str();
  });
  timed(kPrometheus, [&] {
    return gc::to_prometheus_text(
        r.counters, {{"response_time_seconds", &r.response_hist},
                     {"cp.lifecycle.ack_latency_seconds", &r.lifecycle_ack_hist},
                     {"cp.lifecycle.apply_latency_seconds", &r.lifecycle_apply_hist},
                     {"cp.lifecycle.e2e_seconds", &r.lifecycle_e2e_hist},
                     {"cp.lifecycle.obs_age_seconds", &r.lifecycle_obs_age_hist}});
  });
  return out;
}

// -- dcday ---------------------------------------------------------------------

struct DayPass {
  gc::SimResult result;
  double run_s = 0.0;     // run_simulation, plus artifact rendering with sinks
  double render_s = 0.0;  // the rendering part
  Rendered rendered;
  std::size_t audit_records = 0;
  std::size_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
  LayerTiming layers;
};

// One fig8 combined-DCP replay of the day, as fig8_trace_replay runs it.
DayPass run_day(const DayInput& in, std::uint64_t job_seed, bool sinks_on, bool traced) {
  const gc::Provisioner solver(in.config);
  const auto policy = gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, dcp_options());
  TimedController timed(*policy);
  gc::Controller& controller = traced ? static_cast<gc::Controller&>(timed) : *policy;
  gc::Workload workload = gc::Workload::trace_replay(
      in.trace, gc::Distribution::exponential(in.config.mu_max), job_seed);

  gc::SimulationOptions sim = day_sim_options(in.config);
  DayPass pass;
  const auto t0 = Clock::now();
  std::optional<Sinks> sinks;
  if (sinks_on) sinks.emplace().attach(sim);
  pass.result =
      gc::run_simulation(workload, day_cluster_options(in.config), controller, sim);
  if (sinks) {
    const auto t1 = Clock::now();
    pass.rendered = render(*sinks, pass.result);
    pass.render_s = seconds_since(t1);
    pass.audit_records = sinks->audit.size();
    pass.trace_records = sinks->trace.size();
    pass.trace_dropped = sinks->trace.dropped();
  }
  pass.run_s = seconds_since(t0);
  pass.layers = {timed.decide_s(), timed.ticks(), solver.cache_stats()};
  return pass;
}

// The output checks of one replay, counted as one operation.
void check_day(const DayInput& in, const DayPass& pass, bool sinks_on,
               const std::optional<Fingerprint>& expected, Report& report) {
  std::string why;
  const Fingerprint fp = fingerprint(pass.result, in.config.t_ref_s);
  if (!jobs_conserved(pass.result, in.trace.size())) {
    why = "arrivals != completed + shed + dropped + lost";
  } else if (expected && fp != *expected) {
    why = "fingerprint " + fp.str() + " differs from " + expected->str();
  } else if (sinks_on) {
    const std::uint64_t ticks = pass.result.counters.counter_or("control.ticks", 0);
    if (pass.audit_records != ticks) {
      why = gc::format("{} audit records for {} control ticks", pass.audit_records, ticks);
    }
    for (int a = 0; a < kArtifacts && why.empty(); ++a) {
      if (pass.rendered.bytes[a] == 0) {
        why = gc::format("empty {} artifact", kArtifactNames[a]);
      }
    }
  }
  report.attempt(why.empty(), "day replay: " + why);
}

// The measurements every simulator workload takes the same way: the
// untraced and traced pass times, and what the traced passes saw of the
// workload, sim, control and core layers.
struct SimLedger {
  std::vector<double> synth_s;   // Trace::from_profile, one per setup
  std::vector<double> run_s;     // untraced passes
  std::vector<double> traced_s;  // traced passes
  std::vector<double> self_s;    // traced pass minus control decisions
  std::vector<double> decide_s;  // control decisions of a traced pass
  LayerTiming layers;            // of the last traced pass

  void traced(double pass_s, double sim_s, const LayerTiming& l) {
    traced_s.push_back(pass_s);
    self_s.push_back(sim_s - l.decide_s);
    decide_s.push_back(l.decide_s);
    layers = l;
  }

  // `rss_mb` is read when the measured phase ends, before the once-only
  // checks, whose extra runs would otherwise set the high-water mark.
  void end_to_end(Report& report, double setup_s, double events, double rss_mb,
                  const RefClock& ref) const {
    const double run = median(run_s);
    const double run_ref = median(ref.ratios());
    report.add("setup_s", setup_s, "s");
    report.add("run_ref", run_ref, "ref");
    report.add("ops_per_ref", events / run_ref, "1/ref");
    report.add("peak_rss_mb", rss_mb, "MB");
    std::cout << gc::format(
        "run_s {:.6g} s, sim_events_per_s {:.6g} 1/s, reference kernel {:.6g} s; "
        "{} passes, pass seconds p10 {:.4g} p90 {:.4g}\n",
        run, events / run, median(ref.kernel_s()), run_s.size(), quantile(run_s, 0.1),
        quantile(run_s, 0.9));
  }

  void per_layer(Report& report, double arrivals, double events) const {
    const double synth = median(synth_s);
    report.add("workload.synth_s", synth, "s");
    report.add("workload.arrivals", arrivals, "count");
    report.add("workload.synth_ns_per_arrival", synth / arrivals * 1e9, "ns");
    const double self = median(self_s);
    report.add("sim.events", events, "count");
    report.add("sim.self_s", self, "s");
    report.add("sim.ns_per_event", self / events * 1e9, "ns");
    const auto ticks = static_cast<double>(layers.ticks);
    const double decide = median(decide_s);
    report.add("control.ticks", ticks, "count");
    report.add("control.decide_s", decide, "s");
    report.add("control.decide_us_mean", decide / ticks * 1e6, "us");
    const gc::SolverCacheStats& cache = layers.cache;
    const auto calls = static_cast<double>(cache.hits + cache.misses);
    report.add("core.solver_calls", calls, "count");
    report.add("core.solver_cache_hit_rate", cache.hit_rate(), "ratio");
    report.add("trace.overhead_s", median(traced_s) - median(run_s), "s");
  }
};

}  // namespace

void run_dcday(const Options& options, bool sinks, Report& report) {
  const double days = options.quick ? 1.0 : 3.0;
  const std::uint64_t job_seed = job_seed_of(options.seed);
  DayInput in;
  SimLedger ledger;
  const double setup_s = median_setup([&] {
    in = make_day_input(options.seed, days);
    ledger.synth_s.push_back(in.synth_s);
  });

  std::optional<Fingerprint> first;
  std::vector<double> sinks_off_s;
  std::vector<double> export_s[kArtifacts];
  DayPass last;
  RefClock ref;
  auto measured = [&](bool traced) {
    DayPass pass = run_day(in, job_seed, sinks, traced);
    check_day(in, pass, sinks, first, report);
    if (!first) first = fingerprint(pass.result, in.config.t_ref_s);
    if (traced) {
      ledger.traced(pass.run_s, pass.run_s - pass.render_s, pass.layers);
      for (int a = 0; a < kArtifacts; ++a) export_s[a].push_back(pass.rendered.seconds[a]);
    } else {
      ledger.run_s.push_back(pass.run_s);
      if (!options.trace) ref.pass(pass.run_s);
    }
    last = std::move(pass);
  };
  repeat_for(options.seconds, 3, [&] {
    if (!options.trace) return measured(false);
    measured(true);
    measured(false);
    if (sinks) sinks_off_s.push_back(run_day(in, job_seed, false, false).run_s);
  });
  ref.flush();
  const double rss_mb = peak_rss_mb();
  // Sinks are observational: the simulated outcome with them on must equal
  // the outcome with them off.  Checked once, untimed.
  if (sinks) {
    const Fingerprint off = fingerprint(run_day(in, job_seed, false, false).result,
                                        in.config.t_ref_s);
    report.attempt(off == *first, "sinks changed the simulated outcome: " + off.str() +
                                      " vs " + first->str());
  }
  std::cout << "fingerprint " << first->str() << "\n";

  const auto events = static_cast<double>(sequential_events(last.result));
  if (!options.trace) return ledger.end_to_end(report, setup_s, events, rss_mb, ref);
  ledger.per_layer(report, static_cast<double>(in.trace.size()), events);
  if (sinks) {
    report.add("obs.sinks_s", median(ledger.run_s) - median(sinks_off_s), "s");
    for (int a = 0; a < kArtifacts; ++a) {
      report.add(gc::format("obs.export_s.{}", kArtifactNames[a]), median(export_s[a]),
                 "s");
      report.add(gc::format("obs.bytes.{}", kArtifactNames[a]),
                 static_cast<double>(last.rendered.bytes[a]), "B");
    }
    report.add("obs.trace.records", static_cast<double>(last.trace_records), "count");
    report.add("obs.trace.dropped", static_cast<double>(last.trace_dropped), "count");
  }
}

// -- fleet_sharded -------------------------------------------------------------

namespace {

// ROADMAP item 4's fleet size, split into two shards on a dedicated pool.
constexpr unsigned kFleetServers = 131072;
constexpr unsigned kShards = 2;
// One compressed diurnal day of kFleetDayS seconds: a night trough that
// DCP consolidates onto ~400 servers and a midday peak that needs ~1600,
// over 60 short control periods (5 s), each one a barrier.
constexpr double kFleetDayS = 300.0;
constexpr double kFleetMeanRate = 6000.0;  // jobs/s
constexpr double kFleetSwing = 0.6;         // amplitude / mean
// The day is compressed 8x harder than fig8's, so VOVF re-plans every 10 s
// instead of 25 s and keeps more margin to follow the steeper ramp.
constexpr double kFleetLongPeriodS = 10.0;
constexpr double kFleetSafetyMargin = 1.3;

struct FleetInput {
  gc::ClusterConfig config = gc::bench_cluster_config();
  gc::Trace trace;
  double synth_s = 0.0;
};

FleetInput make_fleet_input(std::uint64_t seed, unsigned servers, double mean_rate) {
  FleetInput in;
  in.config.max_servers = servers;
  // Phase a quarter day on so the day opens at the night trough.
  const gc::SinusoidalRate profile(mean_rate, kFleetSwing * mean_rate, kFleetDayS,
                                   0.25 * kFleetDayS);
  const auto t0 = Clock::now();
  in.trace = gc::Trace::from_profile(profile, kFleetDayS, seed);
  in.synth_s = seconds_since(t0);
  return in;
}

struct FleetPass {
  gc::SimResult result;
  double run_s = 0.0;
  gc::ShardProfile profile;
  LayerTiming layers;
};

FleetPass run_fleet(const FleetInput& in, std::uint64_t job_seed, unsigned shards,
                    gc::ThreadPool& pool, bool traced) {
  const gc::Provisioner solver(in.config);
  gc::PolicyOptions popts = dcp_options();
  popts.dcp.long_period_s = kFleetLongPeriodS;
  popts.dcp.safety_margin = kFleetSafetyMargin;
  const auto policy = gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, popts);
  TimedController timed(*policy);
  gc::Controller& controller = traced ? static_cast<gc::Controller&>(timed) : *policy;

  gc::SimulationOptions sim;
  sim.t_ref_s = in.config.t_ref_s;
  sim.record_interval_s = 10.0;
  sim.expected_events_hint = 1u << 16;
  FleetPass pass;
  gc::ShardedOptions sharded;
  sharded.num_shards = shards;
  sharded.pool = &pool;
  if (traced) sharded.profile = &pass.profile;

  const auto t0 = Clock::now();
  pass.result = gc::run_sharded_simulation(in.trace,
                                           gc::Distribution::exponential(in.config.mu_max),
                                           job_seed, day_cluster_options(in.config),
                                           controller, sim, sharded);
  pass.run_s = seconds_since(t0);
  pass.layers = {timed.decide_s(), timed.ticks(), solver.cache_stats()};
  return pass;
}

}  // namespace

void run_fleet_sharded(const Options& options, Report& report) {
  const unsigned servers = options.quick ? kFleetServers / 16 : kFleetServers;
  const double mean_rate = options.quick ? kFleetMeanRate / 16 : kFleetMeanRate;
  const std::uint64_t job_seed = job_seed_of(options.seed);
  gc::ThreadPool pool(kShards);
  FleetInput in;
  SimLedger ledger;
  const double setup_s = median_setup([&] {
    in = make_fleet_input(options.seed, servers, mean_rate);
    ledger.synth_s.push_back(in.synth_s);
  });

  std::optional<Fingerprint> first;
  std::vector<double> barrier_s, orch_s, busy_s, busy_frac, imbalance;
  gc::ShardProfile profile;
  double events = 0.0;
  RefClock ref;
  auto measured = [&](bool traced) {
    const FleetPass pass = run_fleet(in, job_seed, kShards, pool, traced);
    const Fingerprint fp = fingerprint(pass.result, in.config.t_ref_s);
    std::string why;
    if (!jobs_conserved(pass.result, in.trace.size())) {
      why = "arrivals != completed + shed + dropped + lost";
    } else if (first && fp != *first) {
      why = "fingerprint " + fp.str() + " differs from " + first->str();
    }
    report.attempt(why.empty(), "fleet: " + why);
    if (!first) first = fp;
    events = static_cast<double>(
        pass.result.counters.counter_or("sharded.shard_events_scheduled", 0));
    if (!traced) {
      ledger.run_s.push_back(pass.run_s);
      if (!options.trace) ref.pass(pass.run_s);
      return;
    }
    ledger.traced(pass.run_s, pass.run_s, pass.layers);
    const gc::ShardProfile& p = pass.profile;
    barrier_s.push_back(p.barrier_wall_s);
    orch_s.push_back(pass.run_s - p.barrier_wall_s);
    busy_s.push_back(p.busy_total_s());
    busy_frac.push_back(p.busy_fraction());
    imbalance.push_back(p.imbalance());
    profile = p;
  };
  repeat_for(options.seconds, 2, [&] {
    measured(options.trace);
    if (options.trace) measured(false);
  });
  ref.flush();
  const double rss_mb = peak_rss_mb();
  // The sharded engine's contract: output independent of K.  Checked once
  // against K = 1, untimed.
  const FleetPass k1_pass = run_fleet(in, job_seed, 1, pool, false);
  const Fingerprint k1 = fingerprint(k1_pass.result, in.config.t_ref_s);
  report.attempt(k1 == *first, "fleet: K=1 fingerprint " + k1.str() + " differs from K=" +
                                   std::to_string(kShards) + " " + first->str());
  std::cout << "fingerprint " << first->str() << "\n";

  if (!options.trace) return ledger.end_to_end(report, setup_s, events, rss_mb, ref);
  ledger.per_layer(report, static_cast<double>(in.trace.size()), events);
  report.add("sim.sharded.barriers", static_cast<double>(profile.barriers), "count");
  report.add("sim.sharded.barrier_wall_s", median(barrier_s), "s");
  report.add("sim.sharded.orchestrator_s", median(orch_s), "s");
  report.add("sim.sharded.busy_s", median(busy_s), "s");
  report.add("sim.sharded.busy_fraction", median(busy_frac), "ratio");
  report.add("sim.sharded.imbalance", median(imbalance), "ratio");
  report.add("sim.sharded.k1_run_s", k1_pass.run_s, "s");
}

}  // namespace gcbench
