#include "obs/counters.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/format.h"

namespace gc {
namespace {

// Minimal escaping: metric names are code-chosen identifiers, but a stray
// quote or backslash must not produce invalid JSON.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

// -- tiny parser for the exact shape to_json emits ---------------------------

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("CountersSnapshot::from_json: " + std::string(what) +
                             " at offset " + std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos;
  }
  [[nodiscard]] bool consume_if(char c) {
    if (pos < text.size() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }
  // Raw number token (strtod/strtoull grammar subset).
  [[nodiscard]] std::string parse_number_token() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail("expected a number");
    return std::string(text.substr(start, pos - start));
  }
};

}  // namespace

std::uint64_t CountersSnapshot::counter_or(std::string_view name,
                                           std::uint64_t fallback) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

double CountersSnapshot::gauge_or(std::string_view name, double fallback) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

void CountersSnapshot::add_counter(std::string name, std::uint64_t value) {
  counters.emplace_back(std::move(name), value);
}

void CountersSnapshot::add_gauge(std::string name, double value) {
  gauges.emplace_back(std::move(name), value);
}

std::string CountersSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_u64(out, value);
  }
  out += first ? "},\n  \"gauges\": {" : "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    // %.17g survives a strtod round trip bit-exactly for any finite double.
    append_g(out, value);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

CountersSnapshot CountersSnapshot::from_json(std::string_view text) {
  Parser p{text};
  CountersSnapshot out;
  p.expect('{');
  bool first_section = true;
  while (p.peek() != '}') {
    if (!first_section) p.expect(',');
    first_section = false;
    const std::string section = p.parse_string();
    p.expect(':');
    p.expect('{');
    bool first_entry = true;
    while (p.peek() != '}') {
      if (!first_entry) p.expect(',');
      first_entry = false;
      std::string name = p.parse_string();
      p.expect(':');
      const std::string token = p.parse_number_token();
      if (section == "counters") {
        out.counters.emplace_back(std::move(name),
                                  std::strtoull(token.c_str(), nullptr, 10));
      } else if (section == "gauges") {
        out.gauges.emplace_back(std::move(name), std::strtod(token.c_str(), nullptr));
      } else {
        p.fail("unknown section");
      }
    }
    p.expect('}');
  }
  p.expect('}');
  return out;
}

bool operator==(const CountersSnapshot& a, const CountersSnapshot& b) {
  return a.counters == b.counters && a.gauges == b.gauges;
}

Counter& MetricRegistry::counter(std::string_view name) {
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return counters_[i];
  }
  for (const std::string& g : gauge_names_) {
    if (g == name) {
      throw std::invalid_argument("MetricRegistry: '" + std::string(name) +
                                  "' is already registered as a gauge");
    }
  }
  counter_names_.emplace_back(name);
  return counters_.emplace_back(Counter{});
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return gauges_[i];
  }
  for (const std::string& c : counter_names_) {
    if (c == name) {
      throw std::invalid_argument("MetricRegistry: '" + std::string(name) +
                                  "' is already registered as a counter");
    }
  }
  gauge_names_.emplace_back(name);
  return gauges_.emplace_back(Gauge{});
}

CountersSnapshot MetricRegistry::snapshot() const {
  CountersSnapshot snap;
  snap.counters.reserve(counters_.size());
  snap.gauges.reserve(gauges_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    snap.counters.emplace_back(counter_names_[i], counters_[i].value());
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauges_[i].value());
  }
  return snap;
}

}  // namespace gc
