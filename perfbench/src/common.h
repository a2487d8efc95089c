// Shared plumbing of the gcbench harness: options, the result report the
// harness prints as its last stdout line, timing helpers, the forwarding
// controller that times the control layer from outside, and the
// simulated-output fingerprint.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "control/policies.h"
#include "exp/scenario.h"
#include "cp/controller.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "workload/trace.h"

namespace gcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 13;
  double seconds = 10.0;
  bool trace = false;  // per-layer ledger instead of end-to-end metrics
  bool quick = false;  // small inputs for the smoke test
};

// What one run prints: the operations it attempted, how many failed their
// output checks, and its metrics in print order.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  // Counts one operation; a failed one also prints why.
  void attempt(bool ok, const std::string& what);
  // Counts `n` operations that passed their checks.
  void passed(std::uint64_t n) { attempted_ += n; }

  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  // The human-readable table on stdout followed by the one-line JSON
  // result (always the last line).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double median(std::vector<double> v);
// Nearest-rank quantile, p in (0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double p);
[[nodiscard]] double peak_rss_mb();

// Runs `setup` several times and returns the median wall seconds; the
// last invocation's result is what the run goes on to use.
template <class F>
double median_setup(F&& setup) {
  constexpr int kReps = 7;
  std::vector<double> s;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

// Calls `round()` until `seconds` of wall time have passed and at least
// `min_rounds` rounds ran.
template <class F>
void repeat_for(double seconds, int min_rounds, F&& round) {
  const auto start = Clock::now();
  for (int n = 0; n < min_rounds || seconds_since(start) < seconds; ++n) round();
}

// Host-speed reference for the end-to-end times.  The reference VM's vCPUs
// change speed by up to ~1.6x over minutes (neighbour load), which no run
// length averages out.  The harness therefore times a fixed reference
// kernel -- a heap-driven event loop over a 2 MB array that shares no code
// with the simulator -- between passes, and expresses each pass in units of
// the kernel runs on either side of it.  A change to the program moves that
// ratio in full; a change in host speed moves both sides.  The kernel
// defines the unit, so it must never change.
class RefClock {
 public:
  RefClock();  // times the kernel once: the left edge of the first round

  // Records one pass; a round closes, with a kernel run, once it holds at
  // least 0.1 s of passes.
  void pass(double seconds);
  // Closes the open round; call once after the last pass.
  void flush();

  // Each pass's seconds over the mean kernel seconds around its round.
  [[nodiscard]] const std::vector<double>& ratios() const noexcept { return ratios_; }
  [[nodiscard]] const std::vector<double>& kernel_s() const noexcept { return kernel_s_; }

 private:
  std::vector<double> pending_;
  double pending_s_ = 0.0;
  std::vector<double> ratios_;
  std::vector<double> kernel_s_;
};

// Pins the calling thread, and every thread it starts afterwards, to one
// CPU; restores the previous mask on destruction.  cp_serve's client and
// server then hand one CPU to each other directly instead of waking an
// idle vCPU, and its passes take turns on every allowed CPU (see PassCpus)
// so a run's median does not hinge on which vCPU it landed on.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// Round-robin over the CPUs this process may run on.
class PassCpus {
 public:
  PassCpus();
  [[nodiscard]] int next() noexcept {
    return cpus_.empty() ? 0 : cpus_[next_++ % cpus_.size()];
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Forwards every call to a policy and accumulates the wall time spent in
// its decisions: the control layer's self time, measured from outside.
class TimedController final : public gc::Controller {
 public:
  explicit TimedController(gc::Controller& inner) : inner_(inner) {}

  [[nodiscard]] double short_period_s() const override { return inner_.short_period_s(); }
  [[nodiscard]] double long_period_s() const override { return inner_.long_period_s(); }
  [[nodiscard]] gc::ControlAction on_short_tick(const gc::ControlContext& ctx) override;
  [[nodiscard]] gc::ControlAction on_long_tick(const gc::ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return inner_.name(); }
  void save_state(gc::SnapshotWriter& w) const override { inner_.save_state(w); }
  void load_state(gc::SnapshotReader& r) override { inner_.load_state(r); }

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] double decide_s() const noexcept { return decide_s_; }

 private:
  template <class F>
  gc::ControlAction timed(F&& decide) {
    const auto t0 = Clock::now();
    gc::ControlAction a = decide();
    decide_s_ += seconds_since(t0);
    ++ticks_;
    return a;
  }

  gc::Controller& inner_;
  std::uint64_t ticks_ = 0;
  double decide_s_ = 0.0;
};

// -- fig8_trace_replay's datacenter day ----------------------------------------

// Compressed WC98-like days of 2400 s at 70% of the 16-server
// bench_cluster_config's capacity, synthesized from the trace seed.
struct DayInput {
  gc::ClusterConfig config = gc::bench_cluster_config();
  gc::Trace trace;
  double synth_s = 0.0;  // Trace::from_profile alone
};
[[nodiscard]] DayInput make_day_input(std::uint64_t seed, double days);

// The job-size seed rides at a fixed offset from the trace seed, so the
// default --seed 13 reproduces fig8's pair (trace 13, job sizes 21).
[[nodiscard]] inline std::uint64_t job_seed_of(std::uint64_t seed) { return seed + 8; }

// Combined DCP with the bench periods, as every figure runs it.
[[nodiscard]] gc::PolicyOptions dcp_options();
[[nodiscard]] gc::ClusterOptions day_cluster_options(const gc::ClusterConfig& config);
[[nodiscard]] gc::SimulationOptions day_sim_options(const gc::ClusterConfig& config);

// The simulated outcome of a run, folded so two runs can be compared: an
// order-sensitive hash of every SimResult scalar and the timeline (the
// fold of tests/test_determinism_golden.cpp), plus the headline numbers.
struct Fingerprint {
  std::uint64_t checksum = 0;
  double energy_kwh = 0.0;
  double p99_s = 0.0;
  bool sla_met = false;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] std::string str() const;
};

[[nodiscard]] Fingerprint fingerprint(const gc::SimResult& r, double t_ref_s);

// Sum of the sequential engine's sim.events.* counters.
[[nodiscard]] std::uint64_t sequential_events(const gc::SimResult& r);
// Jobs in = jobs out: every arrival completed, was shed, dropped or lost.
[[nodiscard]] bool jobs_conserved(const gc::SimResult& r, std::uint64_t arrivals);

// Per-layer metric names every traced run prints, so one traced run of any
// workload yields the whole ledger; a layer the workload never calls
// reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& ledger_names();

// The workloads.  Each fills `report` with the end-to-end metrics
// (options.trace false) or the per-layer ledger (options.trace true).
void run_dcday(const Options& options, bool sinks, Report& report);
void run_fleet_sharded(const Options& options, Report& report);
void run_cp_serve(const Options& options, Report& report);

}  // namespace gcbench
