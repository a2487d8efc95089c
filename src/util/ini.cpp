#include "util/ini.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/format.h"
#include "util/string_util.h"

namespace gc {

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view view = trim(line);
    if (view.empty() || view.front() == '#' || view.front() == ';') continue;
    if (view.front() == '[') {
      if (view.back() != ']') {
        throw std::runtime_error(gc::format("ini line {}: unterminated section", line_no));
      }
      section = std::string(trim(view.substr(1, view.size() - 2)));
      if (section.empty()) {
        throw std::runtime_error(gc::format("ini line {}: empty section name", line_no));
      }
      const auto [it, fresh] = ini.sections_.try_emplace(section);
      if (!fresh) {
        throw std::runtime_error(
            gc::format("ini line {}: repeated section [{}] (first at line {})", line_no,
                       section, it->second.line));
      }
      it->second.line = line_no;  // a section may be empty but is present
      continue;
    }
    const auto eq = view.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error(gc::format("ini line {}: expected key = value", line_no));
    }
    if (section.empty()) {
      throw std::runtime_error(
          gc::format("ini line {}: key outside any [section]", line_no));
    }
    const std::string key(trim(view.substr(0, eq)));
    const std::string value(trim(view.substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error(gc::format("ini line {}: empty key", line_no));
    }
    const auto [it, fresh] =
        ini.sections_[section].keys.try_emplace(key, Value{value, line_no});
    if (!fresh) {
      throw std::runtime_error(
          gc::format("ini line {}: repeated key '{}' in [{}] (first at line {})", line_no,
                     key, section, it->second.line));
    }
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(gc::format("cannot open '{}'", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::vector<std::string> IniFile::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, body] : sections_) names.push_back(name);
  return names;
}

std::vector<std::string> IniFile::keys(const std::string& section) const {
  std::vector<std::string> names;
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return names;
  names.reserve(sit->second.keys.size());
  for (const auto& [key, value] : sit->second.keys) names.push_back(key);
  return names;
}

std::size_t IniFile::line_of(const std::string& section, const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return 0;
  if (key.empty()) return sit->second.line;
  const auto kit = sit->second.keys.find(key);
  return kit == sit->second.keys.end() ? 0 : kit->second.line;
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return std::nullopt;
  const auto kit = sit->second.keys.find(key);
  if (kit == sit->second.keys.end()) return std::nullopt;
  return kit->second.text;
}

std::string IniFile::get_or(const std::string& section, const std::string& key,
                            const std::string& fallback) const {
  const auto value = get(section, key);
  return value ? *value : fallback;
}

double IniFile::get_double_or(const std::string& section, const std::string& key,
                              double fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  const auto parsed = parse_double(*value);
  if (!parsed) {
    throw std::runtime_error(
        gc::format("ini: [{}] {} = '{}' is not a number", section, key, *value));
  }
  return *parsed;
}

long long IniFile::get_int_or(const std::string& section, const std::string& key,
                              long long fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  const auto parsed = parse_int(*value);
  if (!parsed) {
    throw std::runtime_error(
        gc::format("ini: [{}] {} = '{}' is not an integer", section, key, *value));
  }
  return *parsed;
}

bool IniFile::get_bool_or(const std::string& section, const std::string& key,
                          bool fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  const std::string lower = to_lower(*value);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") return false;
  throw std::runtime_error(
      gc::format("ini: [{}] {} = '{}' is not a boolean", section, key, *value));
}

}  // namespace gc
