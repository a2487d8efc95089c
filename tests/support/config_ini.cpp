#include "support/config_ini.h"

#include "util/format.h"

namespace gc {

std::string cluster_config_ini(const ClusterConfig& config) {
  std::string out = "[cluster]\n";
  out += gc::format("max_servers = {}\n", config.max_servers);
  out += gc::format("mu_max = {:.9g}\n", config.mu_max);
  out += gc::format("t_ref_ms = {:.9g}\n", config.t_ref_s * 1e3);
  out += gc::format("min_servers = {}\n", config.min_servers);
  out += gc::format("perf_model = {}\n",
                    config.perf_model == PerfModel::kMm1PerServer ? "mm1" : "mmc");

  out += "\n[power]\n";
  out += gc::format("p_idle_w = {:.9g}\n", config.power.p_idle_watts);
  out += gc::format("p_max_w = {:.9g}\n", config.power.p_max_watts);
  out += gc::format("p_off_w = {:.9g}\n", config.power.p_off_watts);
  out += gc::format("alpha = {:.9g}\n", config.power.alpha);
  out += gc::format("utilization_gated = {}\n",
                    config.power.utilization_gated ? "true" : "false");

  out += "\n[ladder]\n";
  if (config.ladder.is_continuous()) {
    out += gc::format("continuous_min_speed = {:.9g}\n", config.ladder.min_speed());
  } else {
    out += "levels_ghz =";
    for (const double ghz : config.ladder.levels_ghz()) out += gc::format(" {:.9g}", ghz);
    out += '\n';
  }

  out += "\n[transition]\n";
  out += gc::format("boot_delay_s = {:.9g}\n", config.transition.boot_delay_s);
  out += gc::format("shutdown_delay_s = {:.9g}\n", config.transition.shutdown_delay_s);
  return out;
}

}  // namespace gc
