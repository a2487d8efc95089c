#include "util/cli.h"

#include <algorithm>
#include <stdexcept>

#include "util/string_util.h"

namespace gc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--")) {
      positional_.push_back(token);
      continue;
    }
    std::string body = token.substr(2);
    if (body.empty()) throw std::invalid_argument("cli: bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" if the next token exists and is not itself a flag;
    // otherwise a bare boolean flag.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& key) const noexcept {
  return flags_.find(key) != flags_.end();
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key, const std::string& fallback) const {
  const auto value = get(key);
  return value ? *value : fallback;
}

double CliArgs::get_double_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const auto parsed = parse_double(*value);
  if (!parsed) throw std::invalid_argument("cli: --" + key + " expects a number");
  return *parsed;
}

long long CliArgs::get_int_or(const std::string& key, long long fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const auto parsed = parse_int(*value);
  if (!parsed) throw std::invalid_argument("cli: --" + key + " expects an integer");
  return *parsed;
}

std::vector<std::string> CliArgs::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

}  // namespace gc
