#include "obs/audit.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/format.h"

namespace gc {
namespace {

void append_key(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\": ";
}

void append_kv(std::string& out, const char* key, double value, bool last = false) {
  append_key(out, key);
  // %.17g keeps doubles re-parse-exact; integers render without exponents.
  append_g(out, value);
  if (!last) out += ", ";
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool last = false) {
  append_key(out, key);
  append_u64(out, value);
  if (!last) out += ", ";
}

void append_kv(std::string& out, const char* key, bool value, bool last = false) {
  append_key(out, key);
  out += value ? "true" : "false";
  if (!last) out += ", ";
}

}  // namespace

std::string DecisionAuditLog::to_jsonl() const {
  std::string out;
  out.reserve(records_.size() * 768);  // a record renders to ~720 bytes
  for (const AuditRecord& r : records_) {
    out += '{';
    append_kv(out, "t", r.time_s);
    out += r.long_tick ? "\"tick\": \"long\", " : "\"tick\": \"short\", ";
    append_kv(out, "observed_rate", r.observed_rate);
    append_kv(out, "serving", std::uint64_t{r.serving});
    append_kv(out, "committed", std::uint64_t{r.committed});
    append_kv(out, "powered", std::uint64_t{r.powered});
    append_kv(out, "available", std::uint64_t{r.available});
    append_kv(out, "jobs_in_system", r.jobs_in_system);
    append_kv(out, "predicted_rate", r.predicted_rate);
    append_kv(out, "planning_rate", r.planning_rate);
    append_kv(out, "safety_margin", r.safety_margin);
    append_kv(out, "planned_servers", std::uint64_t{r.planned_servers});
    append_kv(out, "detected_available", std::uint64_t{r.detected_available});
    append_kv(out, "target_set", r.target_set);
    append_kv(out, "target_servers", std::uint64_t{r.target_servers});
    append_kv(out, "delta_servers", static_cast<double>(r.delta_servers));
    append_kv(out, "speed_set", r.speed_set);
    append_kv(out, "speed", r.speed);
    append_kv(out, "infeasible", r.infeasible);
    append_kv(out, "admit_probability", r.admit_probability);
    append_kv(out, "obs_age_s", r.obs_age_s);
    append_kv(out, "safe_mode", r.safe_mode);
    append_kv(out, "solved_spares", static_cast<double>(r.solved_spares));
    append_kv(out, "availability_est", r.availability_est);
    append_kv(out, "binding_constraint", std::uint64_t{r.binding_constraint},
              /*last=*/true);
    out += "}\n";
  }
  return out;
}

namespace {

// Line-local scanner for the flat objects to_jsonl writes: string keys,
// number / true / false / "short" / "long" values, no nesting, no escapes.
struct LineParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("DecisionAuditLog::from_jsonl: " +
                             std::string(what) + " at offset " +
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
    if (peek() != c) fail("unexpected character");
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
  // Value as a double: numbers parse, true/false map to 1/0, "short"/"long"
  // map to 0/1 (the CSV encoding of the tick kind).
  [[nodiscard]] double parse_value() {
    const char c = peek();
    if (c == '"') {
      const std::string s = parse_string();
      if (s == "long") return 1.0;
      if (s == "short") return 0.0;
      fail("unexpected string value");
    }
    if (c == 't' || c == 'f') {
      const bool is_true = text.compare(pos, 4, "true") == 0;
      if (is_true) {
        pos += 4;
        return 1.0;
      }
      if (text.compare(pos, 5, "false") == 0) {
        pos += 5;
        return 0.0;
      }
      fail("unexpected literal");
    }
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
    if (pos == start) fail("expected a value");
    return std::strtod(std::string(text.substr(start, pos - start)).c_str(),
                       nullptr);
  }
};

}  // namespace

DecisionAuditLog DecisionAuditLog::from_jsonl(std::string_view text) {
  DecisionAuditLog log;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line =
        text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    bool blank = true;
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    LineParser p{line};
    AuditRecord r;
    p.expect('{');
    bool first = true;
    while (p.peek() != '}') {
      if (!first) p.expect(',');
      first = false;
      const std::string key = p.parse_string();
      p.expect(':');
      const double v = p.parse_value();
      if (key == "t") {
        r.time_s = v;
      } else if (key == "tick") {
        r.long_tick = v != 0.0;
      } else if (key == "observed_rate") {
        r.observed_rate = v;
      } else if (key == "serving") {
        r.serving = static_cast<unsigned>(v);
      } else if (key == "committed") {
        r.committed = static_cast<unsigned>(v);
      } else if (key == "powered") {
        r.powered = static_cast<unsigned>(v);
      } else if (key == "available") {
        r.available = static_cast<unsigned>(v);
      } else if (key == "jobs_in_system") {
        r.jobs_in_system = static_cast<std::uint64_t>(v);
      } else if (key == "predicted_rate") {
        r.predicted_rate = v;
      } else if (key == "planning_rate") {
        r.planning_rate = v;
      } else if (key == "safety_margin") {
        r.safety_margin = v;
      } else if (key == "planned_servers") {
        r.planned_servers = static_cast<unsigned>(v);
      } else if (key == "detected_available") {
        r.detected_available = static_cast<unsigned>(v);
      } else if (key == "target_set") {
        r.target_set = v != 0.0;
      } else if (key == "target_servers") {
        r.target_servers = static_cast<unsigned>(v);
      } else if (key == "delta_servers") {
        r.delta_servers = static_cast<int>(v);
      } else if (key == "speed_set") {
        r.speed_set = v != 0.0;
      } else if (key == "speed") {
        r.speed = v;
      } else if (key == "infeasible") {
        r.infeasible = v != 0.0;
      } else if (key == "admit_probability") {
        r.admit_probability = v;
      } else if (key == "obs_age_s") {
        r.obs_age_s = v;
      } else if (key == "safe_mode") {
        r.safe_mode = v != 0.0;
      } else if (key == "solved_spares") {
        r.solved_spares = static_cast<int>(v);
      } else if (key == "availability_est") {
        r.availability_est = v;
      } else if (key == "binding_constraint") {
        r.binding_constraint = static_cast<unsigned>(v);
      }
      // Unknown keys fall through: forward compatibility with newer logs.
    }
    p.expect('}');
    log.append(r);
  }
  return log;
}

DecisionAuditLog DecisionAuditLog::read_jsonl(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("DecisionAuditLog: cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_jsonl(buffer.str());
}

void DecisionAuditLog::write_jsonl(const std::filesystem::path& path) const {
  const std::string text = to_jsonl();
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("DecisionAuditLog: cannot write " + path.string());
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    throw std::runtime_error("DecisionAuditLog: short write to " + path.string());
  }
}

CsvTable DecisionAuditLog::to_csv_table() const {
  CsvTable table;
  table.header = {"t",
                  "long_tick",
                  "observed_rate",
                  "serving",
                  "committed",
                  "powered",
                  "available",
                  "jobs_in_system",
                  "predicted_rate",
                  "planning_rate",
                  "safety_margin",
                  "planned_servers",
                  "detected_available",
                  "target_set",
                  "target_servers",
                  "delta_servers",
                  "speed_set",
                  "speed",
                  "infeasible",
                  "admit_probability",
                  "obs_age_s",
                  "safe_mode",
                  "solved_spares",
                  "availability_est",
                  "binding_constraint"};
  table.rows.reserve(records_.size());
  for (const AuditRecord& r : records_) {
    table.rows.push_back({r.time_s,
                          r.long_tick ? 1.0 : 0.0,
                          r.observed_rate,
                          static_cast<double>(r.serving),
                          static_cast<double>(r.committed),
                          static_cast<double>(r.powered),
                          static_cast<double>(r.available),
                          static_cast<double>(r.jobs_in_system),
                          r.predicted_rate,
                          r.planning_rate,
                          r.safety_margin,
                          static_cast<double>(r.planned_servers),
                          static_cast<double>(r.detected_available),
                          r.target_set ? 1.0 : 0.0,
                          static_cast<double>(r.target_servers),
                          static_cast<double>(r.delta_servers),
                          r.speed_set ? 1.0 : 0.0,
                          r.speed,
                          r.infeasible ? 1.0 : 0.0,
                          r.admit_probability,
                          r.obs_age_s,
                          r.safe_mode ? 1.0 : 0.0,
                          static_cast<double>(r.solved_spares),
                          r.availability_est,
                          static_cast<double>(r.binding_constraint)});
  }
  return table;
}

void DecisionAuditLog::write_csv(const std::filesystem::path& path) const {
  write_csv_file(path, to_csv_table());
}

}  // namespace gc
