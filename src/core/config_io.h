// INI files -> ClusterConfig / HeteroConfig.
//
// Lets operators keep cluster descriptions in version control and feed
// them to the examples (`capacity_planner --config pod.ini`).  Format:
//
//   [cluster]
//   max_servers = 16
//   mu_max = 10.0          ; jobs/s at full speed
//   t_ref_ms = 500
//   min_servers = 1
//   perf_model = mm1       ; mm1 | mmc
//
//   [power]
//   p_idle_w = 150
//   p_max_w = 250
//   p_off_w = 5
//   alpha = 3
//   utilization_gated = false
//
//   [ladder]
//   levels_ghz = 0.6 0.8 1.0 1.2 ...   ; or: continuous_min_speed = 0.1
//
//   [transition]
//   boot_delay_s = 8
//   shutdown_delay_s = 2
//
// Missing keys fall back to the in-code defaults; the result is validated.
// Keys are strict: a section or key the reader does not know (a typo such
// as `max_server` or `[clas b]`) is an error naming the section, the key
// and the line, never a silently ignored default.  The files are read,
// never written.
#pragma once

#include "core/cluster_config.h"
#include "core/hetero.h"
#include "util/ini.h"

namespace gc {

// Throws std::runtime_error / std::invalid_argument on malformed input.
[[nodiscard]] ClusterConfig cluster_config_from_ini(const IniFile& ini);

// Heterogeneous fleets: one `[class NAME]` section per server class, with
// count / mu_max / p_idle_w / p_max_w / p_off_w / alpha /
// utilization_gated / levels_ghz; `[cluster] t_ref_ms` applies fleet-wide
// and is the only key `[cluster]` may hold here.  Throws if no class
// sections are present.
[[nodiscard]] HeteroConfig hetero_config_from_ini(const IniFile& ini);

}  // namespace gc
