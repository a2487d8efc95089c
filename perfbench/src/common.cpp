#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <queue>
#include <stdexcept>

#include "util/format.h"
#include "workload/rate_profile.h"

namespace gcbench {

void Report::add(std::string name, double value, std::string unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::move(unit);
      return;
    }
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cout << "CHECK FAILED: " << what << "\n";
}

void Report::print() const {
  std::cout << gc::format("operations: {} attempted, {} failed\n", attempted_, failed_);
  for (const Metric& m : metrics_) {
    std::cout << gc::format("  {:<34} {:16.6g} {}\n", m.name, m.value, m.unit);
  }
  // A non-finite value cannot be written as JSON; it is a harness bug and
  // makes the run incorrect rather than printing a malformed line.
  bool finite = true;
  std::string metrics;
  for (const Metric& m : metrics_) {
    finite = finite && std::isfinite(m.value);
    metrics += gc::format("{}\"{}\": {{\"value\": {:.17g}, \"unit\": \"{}\"}}",
                          metrics.empty() ? "" : ", ", m.name,
                          std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  const bool correct = finite && failed_ == 0 && attempted_ > 0;
  std::cout << gc::format(
                   "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, "
                   "\"metrics\": {{{}}}}}",
                   correct, attempted_, failed_, metrics)
            << std::endl;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

// The reference kernel: a fixed, seeded event loop -- a binary heap of 4096
// pending timestamps, each pop updating and reading a random slot of a 2 MB
// array -- about 20 ms on the reference VM.  Returns its wall seconds.
double reference_kernel_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 18;
  constexpr int kSteps = 100000;
  using Entry = std::pair<double, std::size_t>;
  const auto t0 = Clock::now();
  std::vector<double> slots(kSlots, 1.0);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4096; ++i) {
    heap.push({static_cast<double>(next() % 1000000) * 1e-6, next() % kSlots});
  }
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const auto [now, slot] = heap.top();
    heap.pop();
    slots[slot] = 0.5 * slots[slot] + std::log1p(now);
    acc += slots[(slot * 2654435761u) % kSlots];
    heap.push({now + static_cast<double>(next() % 1000) * 1e-3, next() % kSlots});
  }
  const double s = seconds_since(t0);
  if (!std::isfinite(acc)) throw std::logic_error("reference kernel diverged");
  return s;
}

}  // namespace

RefClock::RefClock() { kernel_s_.push_back(reference_kernel_s()); }

void RefClock::pass(double seconds) {
  pending_.push_back(seconds);
  pending_s_ += seconds;
  if (pending_s_ >= 0.1) flush();
}

void RefClock::flush() {
  if (pending_.empty()) return;
  const double before = kernel_s_.back();
  kernel_s_.push_back(reference_kernel_s());
  const double unit = 0.5 * (before + kernel_s_.back());
  for (const double s : pending_) ratios_.push_back(s / unit);
  pending_.clear();
  pending_s_ = 0.0;
}

CpuPin::CpuPin(int cpu) {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

PassCpus::PassCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

gc::ControlAction TimedController::on_short_tick(const gc::ControlContext& ctx) {
  return timed([&] { return inner_.on_short_tick(ctx); });
}

gc::ControlAction TimedController::on_long_tick(const gc::ControlContext& ctx) {
  return timed([&] { return inner_.on_long_tick(ctx); });
}

DayInput make_day_input(std::uint64_t seed, double days) {
  constexpr double kDayS = 2400.0;
  DayInput in;
  const auto profile = gc::make_wc98_like_profile(
      0.7 * in.config.max_feasible_arrival_rate(), days, seed, kDayS);
  const auto t0 = Clock::now();
  in.trace = gc::Trace::from_profile(*profile, days * kDayS, seed);
  in.synth_s = seconds_since(t0);
  return in;
}

gc::PolicyOptions dcp_options() {
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  return popts;
}

gc::ClusterOptions day_cluster_options(const gc::ClusterConfig& config) {
  gc::ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  return cluster;
}

gc::SimulationOptions day_sim_options(const gc::ClusterConfig& config) {
  gc::SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = 2.0 * gc::bench_dcp_params().long_period_s;
  sim.record_interval_s = 240.0;
  return sim;
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

Fingerprint fingerprint(const gc::SimResult& r, double t_ref_s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v :
       {r.completed_jobs, r.dropped_jobs, r.shed_jobs, r.failures, r.repairs,
        r.boot_timeouts, r.jobs_redispatched, r.jobs_lost}) {
    h = mix(h, v);
  }
  for (const double v :
       {r.sim_time_s, r.mean_response_s, r.p95_response_s, r.p99_response_s,
        r.max_response_s, r.job_violation_ratio, r.window_violation_ratio,
        r.energy.busy_j, r.energy.idle_j, r.energy.transition_j, r.energy.off_j,
        r.mean_power_w}) {
    h = mix(h, v);
  }
  h = mix(h, r.boots);
  h = mix(h, r.shutdowns);
  for (const double v : {r.mean_serving, r.mean_speed, r.mean_jobs_in_system,
                         r.mean_available, r.unavailability, r.shed_ratio}) {
    h = mix(h, v);
  }
  h = mix(h, r.infeasible_ticks);
  h = mix(h, r.infeasible_ratio);
  for (const gc::TimelinePoint& p : r.timeline) {
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
  return {h, r.energy.total_j() / 3.6e6, r.p99_response_s, r.sla_met(t_ref_s)};
}

std::string Fingerprint::str() const {
  return gc::format("{:016x} energy {:.6f} kWh | p99 {:.3f} ms | SLA {}", checksum,
                    energy_kwh, p99_s * 1e3, sla_met ? "met" : "MISSED");
}

std::uint64_t sequential_events(const gc::SimResult& r) {
  std::uint64_t n = 0;
  for (const auto& [name, value] : r.counters.counters) {
    if (name.starts_with("sim.events.")) n += value;
  }
  return n;
}

bool jobs_conserved(const gc::SimResult& r, std::uint64_t arrivals) {
  const auto& c = r.counters;
  return c.counter_or("sim.jobs.completed", 0) + c.counter_or("sim.jobs.shed", 0) +
             c.counter_or("sim.jobs.dropped", 0) + c.counter_or("sim.jobs.lost", 0) ==
         arrivals;
}

const std::vector<std::pair<std::string, std::string>>& ledger_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"workload.synth_s", "s"},
      {"workload.arrivals", "count"},
      {"workload.synth_ns_per_arrival", "ns"},
      {"sim.events", "count"},
      {"sim.self_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"control.ticks", "count"},
      {"control.decide_s", "s"},
      {"control.decide_us_mean", "us"},
      {"core.solver_calls", "count"},
      {"core.solver_cache_hit_rate", "ratio"},
      {"sim.sharded.barriers", "count"},
      {"sim.sharded.barrier_wall_s", "s"},
      {"sim.sharded.orchestrator_s", "s"},
      {"sim.sharded.busy_s", "s"},
      {"sim.sharded.busy_fraction", "ratio"},
      {"sim.sharded.imbalance", "ratio"},
      {"sim.sharded.k1_run_s", "s"},
      {"obs.sinks_s", "s"},
      {"obs.export_s.trace", "s"},
      {"obs.export_s.audit", "s"},
      {"obs.export_s.timeseries", "s"},
      {"obs.export_s.counters", "s"},
      {"obs.export_s.lifecycle", "s"},
      {"obs.export_s.prometheus", "s"},
      {"obs.bytes.trace", "B"},
      {"obs.bytes.audit", "B"},
      {"obs.bytes.timeseries", "B"},
      {"obs.bytes.counters", "B"},
      {"obs.bytes.lifecycle", "B"},
      {"obs.bytes.prometheus", "B"},
      {"obs.trace.records", "count"},
      {"obs.trace.dropped", "count"},
      {"cp.on_tick_us", "us"},
      {"cp.accept_telemetry_ns", "ns"},
      {"cp.on_ack_ns", "ns"},
      {"cp.wire.decode_ns_per_frame", "ns"},
      {"cp.wire.encode_ns_per_frame", "ns"},
      {"cp.wire.socket_us", "us"},
      {"cp.tick_rtt_p50_us", "us"},
      {"cp.tick_rtt_p99_us", "us"},
      {"cp.snapshot_us", "us"},
      {"cp.snapshot_bytes", "B"},
      {"cp.restore_us", "us"},
      {"cp.wal_bytes_per_tick", "B"},
      {"trace.overhead_s", "s"},
  };
  return names;
}

}  // namespace gcbench
