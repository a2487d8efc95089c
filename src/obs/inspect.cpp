#include "obs/inspect.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/table.h"

namespace gc {

namespace {

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Column aggregate over a parsed time-series table.
std::optional<double> column_aggregate(const CsvTable& table,
                                       std::string_view name,
                                       std::string_view agg) {
  const int index = table.column_index(std::string(name));
  if (index < 0 || table.rows.empty()) return std::nullopt;
  const auto col = static_cast<std::size_t>(index);
  if (agg == "last") return table.rows.back()[col];
  double sum = 0.0;
  double lo = table.rows.front()[col];
  double hi = lo;
  for (const auto& row : table.rows) {
    const double v = row[col];
    sum += v;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  if (agg == "sum") return sum;
  if (agg == "min") return lo;
  if (agg == "max") return hi;
  if (agg == "mean") return sum / static_cast<double>(table.rows.size());
  return std::nullopt;
}

}  // namespace

RunArtifacts RunArtifacts::load(const std::string& prefix) {
  RunArtifacts out;
  out.prefix = prefix;
  const std::filesystem::path counters_path = prefix + ".counters.json";
  const std::filesystem::path audit_path = prefix + ".audit.jsonl";
  const std::filesystem::path timeseries_path = prefix + ".timeseries.csv";
  if (std::filesystem::exists(counters_path)) {
    out.counters = CountersSnapshot::from_json(read_text_file(counters_path));
  }
  if (std::filesystem::exists(audit_path)) {
    out.audit = DecisionAuditLog::read_jsonl(audit_path);
  }
  if (std::filesystem::exists(timeseries_path)) {
    out.timeseries = read_csv_file(timeseries_path);
  }
  if (out.empty()) {
    throw std::runtime_error(
        "no artifacts found for prefix '" + prefix +
        "' (expected at least one of .counters.json, .audit.jsonl, "
        ".timeseries.csv)");
  }
  return out;
}

std::optional<double> lookup_metric(const RunArtifacts& run,
                                    std::string_view metric) {
  // Full-name counter/gauge match first: quantile gauges like
  // `cp.lifecycle.ack_latency:p99` carry a literal colon, so the name must
  // win over the NAME:AGG time-series interpretation.  Only when no
  // counter or gauge matches does the suffix fall back to an aggregate.
  if (run.counters) {
    for (const auto& [name, value] : run.counters->counters) {
      if (name == metric) return static_cast<double>(value);
    }
    for (const auto& [name, value] : run.counters->gauges) {
      if (name == metric) return value;
    }
  }
  const std::size_t colon = metric.rfind(':');
  if (colon != std::string_view::npos) {
    if (!run.timeseries) return std::nullopt;
    return column_aggregate(*run.timeseries, metric.substr(0, colon),
                            metric.substr(colon + 1));
  }
  if (run.timeseries) {
    return column_aggregate(*run.timeseries, metric, "mean");
  }
  return std::nullopt;
}

MetricCheck parse_check(std::string_view text) {
  MetricCheck check;
  std::size_t op_pos = std::string_view::npos;
  std::size_t op_len = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '<' || text[i] == '>') {
      op_pos = i;
      check.upper = text[i] == '<';
      op_len = (i + 1 < text.size() && text[i + 1] == '=') ? 2 : 1;
      check.strict = op_len == 1;
      break;
    }
  }
  if (op_pos == std::string_view::npos || op_pos == 0 ||
      op_pos + op_len >= text.size()) {
    throw std::invalid_argument(
        "check must look like METRIC<=BOUND (got '" +
        std::string(text) + "')");
  }
  check.metric = std::string(text.substr(0, op_pos));
  const std::string bound_text(text.substr(op_pos + op_len));
  std::size_t parsed = 0;
  try {
    check.bound = std::stod(bound_text, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (parsed != bound_text.size()) {
    throw std::invalid_argument("malformed bound '" + bound_text +
                                "'");
  }
  return check;
}

CheckResult evaluate_check(const RunArtifacts& run, const MetricCheck& check) {
  const std::optional<double> value = lookup_metric(run, check.metric);
  if (!value) {
    throw std::runtime_error("metric '" + check.metric +
                             "' not found in artifacts for '" + run.prefix +
                             "'");
  }
  CheckResult result;
  result.value = *value;
  if (check.upper) {
    result.passed = check.strict ? *value < check.bound : *value <= check.bound;
  } else {
    result.passed = check.strict ? *value > check.bound : *value >= check.bound;
  }
  return result;
}

namespace {

// The time-series columns worth surfacing in summaries/diffs, with the
// aggregate that makes sense for each.
struct KeyColumn {
  const char* column;
  const char* agg;
};

constexpr KeyColumn kKeyColumns[] = {
    {"observed_rate", "mean"}, {"serving", "mean"},
    {"power_w", "mean"},       {"power_w", "max"},
    {"energy_j", "last"},      {"queue_depth", "max"},
    {"win_mean_t_s", "mean"},  {"win_p95_t_s", "max"},
    {"win_p99_t_s", "max"},    {"rolling_viol_frac", "max"},
    {"shed_frac", "mean"},     {"d_shed", "sum"},
};

void print_counters_section(std::ostream& os, const CountersSnapshot& snapshot) {
  TablePrinter counters("counters");
  counters.column("name").column("value", {0, true, ""});
  for (const auto& [name, value] : snapshot.counters) {
    counters.row().cell(name).cell(static_cast<long long>(value));
  }
  if (counters.num_rows() > 0) counters.print(os);
  TablePrinter gauges("gauges");
  gauges.column("name").column("value", {6, false, ""});
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.row().cell(name).cell(value);
  }
  if (gauges.num_rows() > 0) gauges.print(os);
}

void print_timeseries_section(std::ostream& os, const CsvTable& table) {
  TablePrinter overview("timeseries");
  overview.column("metric").column("value", {6, false, ""});
  const int t_col = table.column_index("t");
  if (t_col >= 0 && !table.rows.empty()) {
    const auto col = static_cast<std::size_t>(t_col);
    overview.row().cell("rows").cell(
        static_cast<long long>(table.rows.size()));
    overview.row().cell("t_first_s").cell(table.rows.front()[col]);
    overview.row().cell("t_last_s").cell(table.rows.back()[col]);
  }
  for (const KeyColumn& key : kKeyColumns) {
    const auto value = column_aggregate(table, key.column, key.agg);
    if (!value) continue;
    overview.row()
        .cell(std::string(key.column) + ":" + key.agg)
        .cell(*value);
  }
  overview.print(os);
}

// Audit-derived phase breakdown: ticks partitioned by kind and by whether
// the fleet was in the watchdog's safe mode.
void print_phase_section(std::ostream& os, const DecisionAuditLog& audit) {
  struct Phase {
    const char* name;
    std::size_t ticks = 0;
    double rate_sum = 0.0;
    double serving_sum = 0.0;
    double target_sum = 0.0;
    std::size_t infeasible = 0;
  };
  Phase phases[] = {{"short"}, {"long"}, {"safe_mode"}};
  for (const AuditRecord& r : audit.records()) {
    Phase& phase =
        r.safe_mode ? phases[2] : (r.long_tick ? phases[1] : phases[0]);
    ++phase.ticks;
    phase.rate_sum += r.observed_rate;
    phase.serving_sum += static_cast<double>(r.serving);
    phase.target_sum += static_cast<double>(r.target_servers);
    if (r.infeasible) ++phase.infeasible;
  }
  TablePrinter table("phases (audit)");
  table.column("phase")
      .column("ticks", {0, true, ""})
      .column("mean_rate", {3, true, "jobs/s"})
      .column("mean_serving", {2, true, ""})
      .column("mean_target", {2, true, ""})
      .column("infeasible", {0, true, ""});
  for (const Phase& phase : phases) {
    if (phase.ticks == 0) continue;
    const auto n = static_cast<double>(phase.ticks);
    table.row()
        .cell(phase.name)
        .cell(static_cast<long long>(phase.ticks))
        .cell(phase.rate_sum / n)
        .cell(phase.serving_sum / n)
        .cell(phase.target_sum / n)
        .cell(static_cast<long long>(phase.infeasible));
  }
  table.print(os);
}

}  // namespace

void print_summary(std::ostream& os, const RunArtifacts& run) {
  os << "run: " << run.prefix << "\n";
  if (run.counters) print_counters_section(os, *run.counters);
  if (run.timeseries) print_timeseries_section(os, *run.timeseries);
  if (run.audit) print_phase_section(os, *run.audit);
}

void print_diff(std::ostream& os, const RunArtifacts& a,
                const RunArtifacts& b) {
  os << "A: " << a.prefix << "\nB: " << b.prefix << "\n";
  if (a.counters && b.counters) {
    TablePrinter table("counters diff");
    table.column("name")
        .column("A", {0, true, ""})
        .column("B", {0, true, ""})
        .column("delta", {0, true, ""});
    for (const auto& [name, value_a] : a.counters->counters) {
      bool found = false;
      std::uint64_t value_b = 0;
      for (const auto& [name_b, v] : b.counters->counters) {
        if (name_b == name) {
          value_b = v;
          found = true;
          break;
        }
      }
      if (!found) continue;
      table.row()
          .cell(name)
          .cell(static_cast<long long>(value_a))
          .cell(static_cast<long long>(value_b))
          .cell(static_cast<long long>(value_b) -
                static_cast<long long>(value_a));
    }
    if (table.num_rows() > 0) table.print(os);
  }
  if (a.timeseries && b.timeseries) {
    TablePrinter table("timeseries diff");
    table.column("metric")
        .column("A", {6, false, ""})
        .column("B", {6, false, ""})
        .column("delta", {6, false, ""})
        .column("rel_pct", {2, true, "%"});
    for (const KeyColumn& key : kKeyColumns) {
      const auto value_a = column_aggregate(*a.timeseries, key.column, key.agg);
      const auto value_b = column_aggregate(*b.timeseries, key.column, key.agg);
      if (!value_a || !value_b) continue;
      const double delta = *value_b - *value_a;
      const double rel =
          *value_a != 0.0 ? 100.0 * delta / std::fabs(*value_a) : 0.0;
      table.row()
          .cell(std::string(key.column) + ":" + key.agg)
          .cell(*value_a)
          .cell(*value_b)
          .cell(delta)
          .cell(rel);
    }
    if (table.num_rows() > 0) table.print(os);
  }
}

// -- Lifecycle view ----------------------------------------------------------

namespace {

// Minimal per-line JSON object scanner for write_lifecycle_jsonl's
// format: flat objects whose values are numbers or plain strings.
struct LifecycleLineParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("lifecycle.jsonl: " + why + " at byte " +
                             std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of line");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') out += text[pos++];
    if (pos >= text.size()) fail("unterminated string");
    ++pos;
    return out;
  }
  [[nodiscard]] double parse_number() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size()) {
      const char d = text[pos];
      if ((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' ||
          d == 'e' || d == 'E') {
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail("expected a number");
    return std::strtod(std::string(text.substr(start, pos - start)).c_str(),
                       nullptr);
  }
};

}  // namespace

std::vector<LifecycleRow> parse_lifecycle_jsonl(std::string_view text) {
  std::vector<LifecycleRow> rows;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    bool blank = true;
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    LifecycleLineParser p{line};
    LifecycleRow r;
    p.expect('{');
    bool first = true;
    while (p.peek() != '}') {
      if (!first) p.expect(',');
      first = false;
      const std::string key = p.parse_string();
      p.expect(':');
      if (key == "kind") {
        r.kind = p.parse_string();
      } else if (key == "state") {
        r.state = p.parse_string();
      } else if (p.peek() == '"') {
        (void)p.parse_string();  // unknown string key: skip
      } else {
        const double v = p.parse_number();
        if (key == "gen") {
          r.gen = static_cast<std::uint64_t>(v);
        } else if (key == "id") {
          r.id = static_cast<std::uint64_t>(v);
        } else if (key == "era") {
          r.era = static_cast<std::uint64_t>(v);
        } else if (key == "value") {
          r.value = v;
        } else if (key == "issued_s") {
          r.issued_s = v;
        } else if (key == "obs_age_s") {
          r.obs_age_s = v;
        } else if (key == "retransmits") {
          r.retransmits = static_cast<std::uint64_t>(v);
        } else if (key == "frame_drops") {
          r.frame_drops = static_cast<std::uint64_t>(v);
        } else if (key == "last_sent_s") {
          r.last_sent_s = v;
        } else if (key == "acked_s") {
          r.acked_s = v;
        } else if (key == "applied_s") {
          r.applied_s = v;
        }
        // Unknown numeric keys fall through: forward compatibility.
      }
    }
    p.expect('}');
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<LifecycleRow> read_lifecycle_jsonl(const std::string& path) {
  return parse_lifecycle_jsonl(read_text_file(path));
}

void print_lifecycle(std::ostream& os, const std::string& prefix) {
  const std::string path = prefix + ".lifecycle.jsonl";
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error("no lifecycle artifact at " + path);
  }
  const std::vector<LifecycleRow> rows = read_lifecycle_jsonl(path);

  TablePrinter table("command lifecycles");
  table.column("id", {0, true, ""})
      .column("kind")
      .column("gen", {0, true, ""})
      .column("era", {0, true, ""})
      .column("value", {3, false, ""})
      .column("issued_s", {3, false, ""})
      .column("obs_age_s", {4, false, ""})
      .column("rtx", {0, true, ""})
      .column("ack_lat_s", {4, false, ""})
      .column("apply_lat_s", {4, false, ""})
      .column("state");
  for (const LifecycleRow& r : rows) {
    table.row()
        .cell(static_cast<long long>(r.id))
        .cell(r.kind)
        .cell(static_cast<long long>(r.gen))
        .cell(static_cast<long long>(r.era))
        .cell(r.value)
        .cell(r.issued_s)
        .cell(r.obs_age_s)
        .cell(static_cast<long long>(r.retransmits));
    if (r.acked_s >= 0.0) {
      table.cell(r.acked_s - r.issued_s);
    } else {
      table.cell("-");
    }
    if (r.applied_s >= 0.0) {
      table.cell(r.applied_s - r.issued_s);
    } else {
      table.cell("-");
    }
    table.cell(r.state);
  }
  table.print(os);

  std::uint64_t completed = 0, superseded = 0, reconciled = 0, other = 0;
  std::uint64_t retransmits = 0, acked = 0, applied = 0;
  double ack_lat_max = 0.0, apply_lat_max = 0.0, ack_lat_sum = 0.0,
         apply_lat_sum = 0.0;
  for (const LifecycleRow& r : rows) {
    if (r.state == "completed") {
      ++completed;
    } else if (r.state == "superseded") {
      ++superseded;
    } else if (r.state == "reconciled") {
      ++reconciled;
    } else {
      ++other;
    }
    retransmits += r.retransmits;
    if (r.acked_s >= 0.0) {
      ++acked;
      const double lat = r.acked_s - r.issued_s;
      ack_lat_sum += lat;
      if (lat > ack_lat_max) ack_lat_max = lat;
    }
    if (r.applied_s >= 0.0) {
      ++applied;
      const double lat = r.applied_s - r.issued_s;
      apply_lat_sum += lat;
      if (lat > apply_lat_max) apply_lat_max = lat;
    }
  }
  TablePrinter summary("lifecycle summary");
  summary.column("metric").column("value", {4, false, ""});
  summary.row().cell("commands").cell(static_cast<long long>(rows.size()));
  summary.row().cell("completed").cell(static_cast<long long>(completed));
  summary.row().cell("superseded").cell(static_cast<long long>(superseded));
  summary.row().cell("reconciled").cell(static_cast<long long>(reconciled));
  if (other > 0) summary.row().cell("other").cell(static_cast<long long>(other));
  summary.row().cell("acked").cell(static_cast<long long>(acked));
  summary.row().cell("applied").cell(static_cast<long long>(applied));
  summary.row().cell("retransmits").cell(static_cast<long long>(retransmits));
  summary.row().cell("retransmit_rate").cell(
      rows.empty() ? 0.0
                   : static_cast<double>(retransmits) /
                         static_cast<double>(rows.size()));
  summary.row().cell("ack_latency_mean_s").cell(
      acked > 0 ? ack_lat_sum / static_cast<double>(acked) : 0.0);
  summary.row().cell("ack_latency_max_s").cell(ack_lat_max);
  summary.row().cell("apply_latency_mean_s").cell(
      applied > 0 ? apply_lat_sum / static_cast<double>(applied) : 0.0);
  summary.row().cell("apply_latency_max_s").cell(apply_lat_max);
  summary.print(os);
}

}  // namespace gc
