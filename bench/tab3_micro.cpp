// T3 — Micro-performance of the solver and the simulator core
// (google-benchmark).  Not a figure of the paper; documents that the
// "more boilerplate" solver+simulator stack is fast enough that every
// other bench is workload-bound, not infrastructure-bound.
#include <benchmark/benchmark.h>

#include <vector>

#include "control/policies.h"
#include "core/provisioner.h"
#include "exp/scenario.h"
#include "sim/dispatcher.h"
#include "sim/event_queue.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "stats/rng.h"
#include "workload/workload.h"

namespace {

gc::ClusterConfig config_of_size(unsigned m) {
  gc::ClusterConfig config;
  config.max_servers = m;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

void BM_SolveScan(benchmark::State& state) {
  const gc::Provisioner solver(config_of_size(static_cast<unsigned>(state.range(0))));
  const double max_rate = solver.config().max_feasible_arrival_rate();
  double lambda = 0.0;
  for (auto _ : state) {
    lambda += max_rate / 1000.0;
    if (lambda > max_rate) lambda = 0.0;
    benchmark::DoNotOptimize(solver.solve(lambda));
  }
}
BENCHMARK(BM_SolveScan)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SolveFast(benchmark::State& state) {
  const gc::Provisioner solver(config_of_size(static_cast<unsigned>(state.range(0))));
  const double max_rate = solver.config().max_feasible_arrival_rate();
  double lambda = 0.0;
  for (auto _ : state) {
    lambda += max_rate / 1000.0;
    if (lambda > max_rate) lambda = 0.0;
    benchmark::DoNotOptimize(solver.solve_fast(lambda));
  }
}
BENCHMARK(BM_SolveFast)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SolveContinuous(benchmark::State& state) {
  const gc::Provisioner solver(config_of_size(64));
  double lambda = 0.0;
  for (auto _ : state) {
    lambda += 0.37;
    if (lambda > 400.0) lambda = 0.0;
    benchmark::DoNotOptimize(solver.solve_continuous(lambda));
  }
}
BENCHMARK(BM_SolveContinuous);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  gc::EventQueue queue;
  gc::Rng rng(1);
  double base = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(base + rng.uniform01(), gc::EventType::kArrival);
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(queue.pop());
    base += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Steady-state event-loop churn with M pending departures: each iteration
// cancels one pending event, schedules its replacement, pops the head and
// schedules the popped subject's successor — the cancel-heavy access
// pattern a running simulation produces (speed changes reschedule
// departures constantly).  4 queue ops per iteration.
void BM_EventLoopChurn(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  gc::EventQueue queue;
  gc::Rng rng(42);
  std::vector<gc::EventId> pending(m);
  for (unsigned i = 0; i < m; ++i) {
    pending[i] = queue.schedule(rng.uniform01() * 10.0, gc::EventType::kDeparture, i);
  }
  for (auto _ : state) {
    const auto pick = static_cast<unsigned>(rng.uniform_below(m));
    queue.cancel(pending[pick]);
    pending[pick] = queue.schedule(queue.now() + rng.uniform01() * 10.0,
                                   gc::EventType::kDeparture, pick);
    const auto event = queue.pop();
    pending[event->subject] = queue.schedule(
        queue.now() + rng.uniform01() * 10.0, gc::EventType::kDeparture,
        event->subject);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_EventLoopChurn)->Arg(16)->Arg(256)->Arg(1024);

// Dispatcher hot path: one pick over a fleet with half the servers
// serving, via the incremental serving index vs the O(M) reference scan.
void dispatcher_pick_bench(benchmark::State& state, bool indexed) {
  const auto m = static_cast<unsigned>(state.range(0));
  const gc::PowerModel power{gc::PowerModelParams{}};
  std::vector<gc::Server> servers;
  std::vector<std::uint32_t> serving;
  servers.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const bool on = i % 2 == 0;
    servers.emplace_back(i, &power, 1.0, on, 0.0);
    if (on) serving.push_back(i);
  }
  gc::Dispatcher dispatcher(gc::DispatchPolicy::kJoinShortestQueue,
                            gc::Rng(7, /*stream=*/3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexed ? dispatcher.pick(0.0, servers, serving)
                                     : dispatcher.pick(0.0, servers));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_DispatcherPickIndexed(benchmark::State& state) {
  dispatcher_pick_bench(state, true);
}
void BM_DispatcherPickScan(benchmark::State& state) {
  dispatcher_pick_bench(state, false);
}
BENCHMARK(BM_DispatcherPickIndexed)->Arg(64)->Arg(1024);
BENCHMARK(BM_DispatcherPickScan)->Arg(64)->Arg(1024);

// solve() over a recurring set of measured rates — the access pattern DCP
// ticks generate (integer arrival counts over fixed periods), where the
// memo cache converts the scan into a table lookup.
void BM_SolveCachedReplay(benchmark::State& state) {
  const gc::Provisioner solver(config_of_size(64));
  const double max_rate = solver.config().max_feasible_arrival_rate();
  std::vector<double> rates;
  for (int i = 0; i < 64; ++i) {
    rates.push_back(max_rate * static_cast<double>(i) / 80.0);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(rates[cursor]));
    cursor = (cursor + 1) % rates.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolveCachedReplay);

// End-to-end simulator throughput (jobs simulated per second of wall time).
void BM_SimulatorThroughput(benchmark::State& state) {
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    gc::Workload workload = gc::Workload::poisson_exponential(24.0, 10.0, 2000.0, 3);
    gc::ClusterOptions cluster;
    cluster.num_servers = 4;
    cluster.initial_active = 4;
    gc::PinnedController controller(4, 1.0);
    gc::SimulationOptions sim;
    sim.t_ref_s = 1.0;
    const gc::SimResult result = run_simulation(workload, cluster, controller, sim);
    jobs += result.completed_jobs;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
