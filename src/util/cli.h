// Minimal command-line flag parsing for the example programs.
//
// Supports `--key=value`, `--key value`, bare `--flag` (present, empty value) and
// positional arguments.  Unknown-flag detection is the caller's job via
// `unknown_flags`, so examples can print their own usage text.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gc {

class CliArgs {
 public:
  // Parses argv (argv[0] is skipped).  Throws std::invalid_argument on a
  // malformed token such as "--" with nothing after it.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const noexcept;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] double get_double_or(const std::string& key, double fallback) const;
  [[nodiscard]] long long get_int_or(const std::string& key, long long fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  // Flags present on the command line but not in `known` (for usage errors).
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;  // value "" means bare flag
  std::vector<std::string> positional_;
};

}  // namespace gc
