// Run-artifact inspection — the library behind tools/gcinspect.
//
// A run identified by PREFIX leaves up to three artifacts next to each
// other: PREFIX.counters.json (CountersSnapshot), PREFIX.audit.jsonl
// (DecisionAuditLog), PREFIX.timeseries.csv (TimeSeriesRecorder export).
// RunArtifacts loads whichever exist; the summary/diff/check helpers work
// with whatever subset is present.
//
// Metric references (for --check and diffs) are strings of the form
//
//   NAME          counter or gauge NAME from the counters snapshot, else
//                 the mean of time-series column NAME
//   NAME:AGG      time-series column NAME aggregated by AGG, one of
//                 mean | min | max | last | sum
//
// and a check is `METRIC OP BOUND` with OP one of <=, >=, <, > (no
// spaces, e.g. `win_p95_t_s:max<=2.5` or `chan.commands.dropped<=40`).
// evaluate_check() is what ci/check.sh gates on via `gcinspect --check`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/audit.h"
#include "obs/counters.h"
#include "util/csv.h"

namespace gc {

struct RunArtifacts {
  std::string prefix;
  std::optional<CountersSnapshot> counters;
  std::optional<DecisionAuditLog> audit;
  std::optional<CsvTable> timeseries;

  // Loads PREFIX.counters.json / PREFIX.audit.jsonl / PREFIX.timeseries.csv,
  // each only if the file exists.  Throws std::runtime_error if none of the
  // three is present, or if a present file fails to parse.
  [[nodiscard]] static RunArtifacts load(const std::string& prefix);

  [[nodiscard]] bool empty() const noexcept {
    return !counters && !audit && !timeseries;
  }
};

// Resolves a metric reference (see header comment) against the artifacts.
// Returns nullopt when the name is unknown or the needed artifact is absent.
[[nodiscard]] std::optional<double> lookup_metric(const RunArtifacts& run,
                                                  std::string_view metric);

struct MetricCheck {
  std::string metric;   // reference, possibly with :AGG suffix
  bool upper = true;    // true: value must be <op> bound with op in {<=,<}
  bool strict = false;  // strict inequality
  double bound = 0.0;
};

// Parses `METRIC OP BOUND`; throws std::invalid_argument on syntax errors.
[[nodiscard]] MetricCheck parse_check(std::string_view text);

struct CheckResult {
  bool passed = false;
  double value = 0.0;  // resolved metric value
};

// Resolves the metric and applies the bound.  Throws std::runtime_error if
// the metric cannot be resolved against this run's artifacts.
[[nodiscard]] CheckResult evaluate_check(const RunArtifacts& run,
                                         const MetricCheck& check);

// One-run report: counter/gauge listing, time-series overview (duration,
// rows, per-column aggregates of the key columns), and an audit-derived
// per-phase breakdown (warmup vs. measured, normal vs. safe-mode ticks).
void print_summary(std::ostream& os, const RunArtifacts& run);

// Two-run A/B report: shared counters and key time-series aggregates side
// by side with absolute and relative deltas.
void print_diff(std::ostream& os, const RunArtifacts& a, const RunArtifacts& b);

// -- Lifecycle view ----------------------------------------------------------
//
// One parsed PREFIX.lifecycle.jsonl record — a command's reconstructed
// issued -> sent -> retransmitted×N -> acked -> applied timeline as the
// lifecycle tracker (cp/lifecycle.h) exported it.  Parsed generically
// (kind/state kept as strings) so the inspector carries no cp/ dependency.
struct LifecycleRow {
  std::string kind;             // "target" | "speed"
  std::uint64_t gen = 0;
  std::uint64_t id = 0;         // deterministic lifecycle id (gen<<1 | kind)
  std::uint64_t era = 0;
  double value = 0.0;
  double issued_s = 0.0;
  double obs_age_s = 0.0;       // telemetry age at the issuing decision
  std::uint64_t retransmits = 0;
  std::uint64_t frame_drops = 0;
  double last_sent_s = 0.0;
  double acked_s = -1.0;        // < 0: never acked
  double applied_s = -1.0;      // < 0: never applied (or unobservable)
  std::string state;            // "completed" | "superseded" | "reconciled" | ...
};

// Parses write_lifecycle_jsonl's output.  Throws std::runtime_error on
// unreadable files or malformed lines; unknown keys are ignored.
[[nodiscard]] std::vector<LifecycleRow> parse_lifecycle_jsonl(
    std::string_view text);
[[nodiscard]] std::vector<LifecycleRow> read_lifecycle_jsonl(
    const std::string& path);

// `gcinspect --lifecycle`: renders PREFIX.lifecycle.jsonl as a per-command
// timeline table (id, kind, gen, issued, retransmits, ack/apply latencies,
// terminal state) plus a summary block (counts by state, retransmit rate,
// latency extremes).  Throws if the artifact is missing.
void print_lifecycle(std::ostream& os, const std::string& prefix);

}  // namespace gc
