#include "core/config_io.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string_view>

#include "util/format.h"
#include "util/string_util.h"

namespace gc {
namespace {

// Typed INI reads with context in the error: a negative count must not be
// silently cast to a huge unsigned, and a NaN must not leak into the solver
// (where every comparison against it is quietly false).
unsigned get_unsigned(const IniFile& ini, const std::string& section,
                      const std::string& key, unsigned fallback) {
  const long long value =
      ini.get_int_or(section, key, static_cast<long long>(fallback));
  if (value < 0) {
    throw std::runtime_error(
        gc::format("config: [{}] {} must be >= 0 (got {})", section, key, value));
  }
  if (value > static_cast<long long>(std::numeric_limits<unsigned>::max())) {
    throw std::runtime_error(
        gc::format("config: [{}] {} is out of range (got {})", section, key, value));
  }
  return static_cast<unsigned>(value);
}

double get_finite(const IniFile& ini, const std::string& section,
                  const std::string& key, double fallback) {
  const double value = ini.get_double_or(section, key, fallback);
  if (!std::isfinite(value)) {
    throw std::runtime_error(
        gc::format("config: [{}] {} must be finite (got {})", section, key, value));
  }
  return value;
}

double get_positive(const IniFile& ini, const std::string& section,
                    const std::string& key, double fallback) {
  const double value = get_finite(ini, section, key, fallback);
  if (!(value > 0.0)) {
    throw std::runtime_error(
        gc::format("config: [{}] {} must be > 0 (got {})", section, key, value));
  }
  return value;
}

// `levels_ghz = 0.6 0.8 ...`: finite positive frequencies, space separated.
FrequencyLadder parse_levels(const std::string& levels) {
  std::vector<double> ghz;
  for (const auto piece : split(levels, ' ')) {
    const auto trimmed = trim(piece);
    if (trimmed.empty()) continue;
    const auto value = parse_double(trimmed);
    if (!value || !std::isfinite(*value) || !(*value > 0.0)) {
      throw std::runtime_error(
          gc::format("config: bad ladder level '{}' (need a finite positive "
                     "frequency)",
                     std::string(trimmed)));
    }
    ghz.push_back(*value);
  }
  return FrequencyLadder(std::move(ghz));
}

// A section a reader understands and the keys it reads there.  A name
// ending in a space is a prefix (`"class "` matches `[class web]`).
struct SectionKeys {
  std::string_view section;
  std::span<const std::string_view> keys;
};

// Rejects every section and key outside `schema`: without this a typo
// would read as "not set" and silently fall back to the default.
void reject_unknown(const IniFile& ini, std::span<const SectionKeys> schema) {
  for (const std::string& section : ini.section_names()) {
    const auto known =
        std::find_if(schema.begin(), schema.end(), [&](const SectionKeys& s) {
          return s.section.ends_with(' ') ? starts_with(section, s.section)
                                          : section == s.section;
        });
    if (known == schema.end()) {
      throw std::runtime_error(gc::format("config line {}: unknown section [{}]",
                                          ini.line_of(section), section));
    }
    for (const std::string& key : ini.keys(section)) {
      if (std::find(known->keys.begin(), known->keys.end(), key) == known->keys.end()) {
        throw std::runtime_error(gc::format("config line {}: unknown key '{}' in [{}]",
                                            ini.line_of(section, key), key, section));
      }
    }
  }
}

constexpr std::string_view kClusterKeys[] = {"max_servers", "mu_max", "t_ref_ms",
                                             "min_servers", "perf_model"};
constexpr std::string_view kPowerKeys[] = {"p_idle_w", "p_max_w", "p_off_w", "alpha",
                                           "utilization_gated"};
constexpr std::string_view kLadderKeys[] = {"levels_ghz", "continuous_min_speed"};
constexpr std::string_view kTransitionKeys[] = {"boot_delay_s", "shutdown_delay_s"};
constexpr SectionKeys kClusterSchema[] = {{"cluster", kClusterKeys},
                                          {"power", kPowerKeys},
                                          {"ladder", kLadderKeys},
                                          {"transition", kTransitionKeys}};

constexpr std::string_view kFleetKeys[] = {"t_ref_ms"};
constexpr std::string_view kClassKeys[] = {"count", "mu_max", "p_idle_w", "p_max_w",
                                           "p_off_w", "alpha", "utilization_gated",
                                           "levels_ghz"};
constexpr SectionKeys kHeteroSchema[] = {{"cluster", kFleetKeys}, {"class ", kClassKeys}};

}  // namespace

ClusterConfig cluster_config_from_ini(const IniFile& ini) {
  reject_unknown(ini, kClusterSchema);
  ClusterConfig config;
  config.max_servers = get_unsigned(ini, "cluster", "max_servers", config.max_servers);
  config.mu_max = get_positive(ini, "cluster", "mu_max", config.mu_max);
  config.t_ref_s = get_positive(ini, "cluster", "t_ref_ms", config.t_ref_s * 1e3) / 1e3;
  config.min_servers = get_unsigned(ini, "cluster", "min_servers", config.min_servers);
  const std::string model = to_lower(ini.get_or("cluster", "perf_model", "mm1"));
  if (model == "mm1") {
    config.perf_model = PerfModel::kMm1PerServer;
  } else if (model == "mmc") {
    config.perf_model = PerfModel::kMmcCluster;
  } else {
    throw std::runtime_error(gc::format("config: unknown perf_model '{}'", model));
  }

  config.power.p_idle_watts =
      get_finite(ini, "power", "p_idle_w", config.power.p_idle_watts);
  config.power.p_max_watts =
      get_finite(ini, "power", "p_max_w", config.power.p_max_watts);
  config.power.p_off_watts =
      get_finite(ini, "power", "p_off_w", config.power.p_off_watts);
  config.power.alpha = get_finite(ini, "power", "alpha", config.power.alpha);
  config.power.utilization_gated =
      ini.get_bool_or("power", "utilization_gated", config.power.utilization_gated);

  if (const auto levels = ini.get("ladder", "levels_ghz")) {
    config.ladder = parse_levels(*levels);
  } else if (const auto min_speed = ini.get("ladder", "continuous_min_speed")) {
    const auto value = parse_double(*min_speed);
    if (!value || !std::isfinite(*value)) {
      throw std::runtime_error("config: bad continuous_min_speed");
    }
    config.ladder = FrequencyLadder::continuous(*value);
  }

  config.transition.boot_delay_s =
      get_finite(ini, "transition", "boot_delay_s", config.transition.boot_delay_s);
  config.transition.shutdown_delay_s = get_finite(
      ini, "transition", "shutdown_delay_s", config.transition.shutdown_delay_s);

  config.validate();
  return config;
}

HeteroConfig hetero_config_from_ini(const IniFile& ini) {
  reject_unknown(ini, kHeteroSchema);
  HeteroConfig config;
  config.t_ref_s = get_positive(ini, "cluster", "t_ref_ms", 100.0) / 1e3;
  // Class name -> line of its section header.  `[class a]` and `[class  a]`
  // are two sections but one trimmed name, which the INI reader's
  // repeated-section check cannot see.
  std::map<std::string, std::size_t> header_line;
  for (const std::string& section : ini.section_names()) {
    if (!starts_with(section, "class ")) continue;
    ServerClass sc;
    sc.name = std::string(trim(std::string_view(section).substr(6)));
    const std::size_t line = ini.line_of(section);
    const auto [first, fresh] = header_line.emplace(sc.name, line);
    if (!fresh) {
      throw std::runtime_error(gc::format(
          "config line {}: repeated class name '{}' (first at line {})",
          std::max(line, first->second), sc.name, std::min(line, first->second)));
    }
    sc.count = get_unsigned(ini, section, "count", 0);
    sc.mu_max = get_positive(ini, section, "mu_max", sc.mu_max);
    sc.power.p_idle_watts = get_finite(ini, section, "p_idle_w", sc.power.p_idle_watts);
    sc.power.p_max_watts = get_finite(ini, section, "p_max_w", sc.power.p_max_watts);
    sc.power.p_off_watts = get_finite(ini, section, "p_off_w", sc.power.p_off_watts);
    sc.power.alpha = get_finite(ini, section, "alpha", sc.power.alpha);
    sc.power.utilization_gated =
        ini.get_bool_or(section, "utilization_gated", sc.power.utilization_gated);
    if (const auto levels = ini.get(section, "levels_ghz")) {
      sc.ladder = parse_levels(*levels);
    }
    config.classes.push_back(std::move(sc));
  }
  if (config.classes.empty()) {
    throw std::runtime_error("config: no [class NAME] sections for a hetero fleet");
  }
  config.validate();
  return config;
}

}  // namespace gc
