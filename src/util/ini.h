// Minimal INI parsing: `[section]` headers, `key = value` pairs, `#`/`;`
// comments.  Used by core/config_io.h so cluster descriptions can live in
// version-controlled files instead of code.  Strict: a repeated section
// header or a repeated key within a section is an error, never a silent
// merge or last-one-wins.  Read-only: there is no serializer.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gc {

class IniFile {
 public:
  // Parses INI text.  Throws std::runtime_error on malformed lines
  // (content outside a section, '[' without ']', missing '=') and on a
  // repeated section header or key.
  [[nodiscard]] static IniFile parse(const std::string& text);
  [[nodiscard]] static IniFile load(const std::string& path);

  [[nodiscard]] std::vector<std::string> section_names() const;
  // Keys of `section` in sorted order (empty when the section is absent).
  [[nodiscard]] std::vector<std::string> keys(const std::string& section) const;
  // The 1-based line a section header (empty `key`) or a key was read
  // from; 0 when absent.
  [[nodiscard]] std::size_t line_of(const std::string& section,
                                    const std::string& key = {}) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& section, const std::string& key,
                                   const std::string& fallback) const;
  // Typed accessors; throw std::runtime_error when present but malformed.
  [[nodiscard]] double get_double_or(const std::string& section, const std::string& key,
                                     double fallback) const;
  [[nodiscard]] long long get_int_or(const std::string& section, const std::string& key,
                                     long long fallback) const;
  [[nodiscard]] bool get_bool_or(const std::string& section, const std::string& key,
                                 bool fallback) const;

 private:
  struct Value {
    std::string text;
    std::size_t line = 0;
  };
  struct Section {
    std::size_t line = 0;
    std::map<std::string, Value> keys;
  };
  std::map<std::string, Section> sections_;
};

}  // namespace gc
