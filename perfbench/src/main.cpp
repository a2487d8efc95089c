// gcbench — the GreenCluster benchmark harness.
//
//   gcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//
// Runs one workload (dcday_seq, dcday_sinks, fleet_sharded, cp_serve) for
// about S seconds of measured passes, checks every output, and prints a
// human-readable report followed by one JSON line:
//   {"metrics": {...}, "correct": ..., "attempted": ..., "failed": ...}
// With --trace 0 the metrics are the end-to-end ones (setup_s, run_ref,
// ops_per_ref, peak_rss_mb); with --trace 1 they are the per-layer ledger.
// --quick shrinks the inputs for the smoke test.  See perfbench/README.md.
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace gcbench;
  try {
    const gc::CliArgs args(argc, argv);
    const auto unknown =
        args.unknown_flags({"workload", "seed", "seconds", "trace", "quick"});
    if (!unknown.empty() || !args.positional().empty()) {
      std::cerr << "gcbench: unexpected argument "
                << (unknown.empty() ? args.positional().front() : "--" + unknown.front())
                << "\n";
      return 2;
    }
    Options options;
    options.workload = args.get_or("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 13));
    options.seconds = args.get_double_or("seconds", 10.0);
    options.trace = args.get_int_or("trace", 0) != 0;
    options.quick = args.has("quick");

    Report report;
    if (options.trace) {
      for (const auto& [name, unit] : ledger_names()) report.add(name, 0.0, unit);
    }
    if (options.workload == "dcday_seq") {
      run_dcday(options, /*sinks=*/false, report);
    } else if (options.workload == "dcday_sinks") {
      run_dcday(options, /*sinks=*/true, report);
    } else if (options.workload == "fleet_sharded") {
      run_fleet_sharded(options, report);
    } else if (options.workload == "cp_serve") {
      run_cp_serve(options, report);
    } else {
      std::cerr << "gcbench: unknown --workload '" << options.workload
                << "' (dcday_seq, dcday_sinks, fleet_sharded, cp_serve)\n";
      return 2;
    }
    report.print();
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gcbench: " << e.what() << "\n";
    return 2;
  }
}
