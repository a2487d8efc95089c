#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.h"
#include "util/format.h"

namespace gc {

void FaultOptions::validate(unsigned num_servers) const {
  if (!(mtbf_s >= 0.0) || !std::isfinite(mtbf_s)) {
    throw std::invalid_argument("FaultOptions: mtbf_s must be finite and >= 0");
  }
  if (!(mttr_s > 0.0) || !std::isfinite(mttr_s)) {
    throw std::invalid_argument("FaultOptions: mttr_s must be finite and > 0");
  }
  if (!(boot_hang_prob >= 0.0 && boot_hang_prob <= 1.0)) {
    throw std::invalid_argument("FaultOptions: boot_hang_prob out of [0,1]");
  }
  for (const ScriptedFault& f : script) {
    if (!(f.time >= 0.0) || !std::isfinite(f.time)) {
      throw std::invalid_argument("FaultOptions: scripted fault time must be >= 0");
    }
    if (!(f.repair_after_s > 0.0)) {  // infinity is fine
      throw std::invalid_argument("FaultOptions: scripted repair_after_s must be > 0");
    }
    if (f.server >= num_servers) {
      throw std::invalid_argument(
          format("FaultOptions: scripted fault targets server {} of {}", f.server,
                 num_servers));
    }
  }
}

FaultInjector::FaultInjector(const FaultOptions& options, std::uint64_t seed,
                             unsigned num_servers, std::uint32_t stride,
                             std::uint32_t offset)
    : options_(options) {
  options.validate(num_servers);
  GC_CHECK(stride > 0 && offset < num_servers, "FaultInjector: empty fleet slice");
  positions_.reserve((num_servers - offset + stride - 1) / stride);
  for (std::uint64_t gi = offset; gi < num_servers; gi += stride) {
    positions_.push_back(Position{Rng(seed, gi)});
  }
  // The owned scripted entries, position-addressed, in firing order (ties
  // keep their script order).
  std::vector<ScriptedFault> owned;
  for (ScriptedFault f : options.script) {
    if (f.server % stride != offset) continue;
    f.server /= stride;
    GC_CHECK(f.server < positions_.size(),
             "FaultInjector: scripted fault outside the slice");
    owned.push_back(f);
  }
  std::stable_sort(owned.begin(), owned.end(),
                   [](const ScriptedFault& a, const ScriptedFault& b) {
                     return a.time < b.time;
                   });
  for (const ScriptedFault& f : owned) positions_[f.server].script.push_back(f);
  options_.script = std::move(owned);
}

void FaultInjector::arm(EventQueue& queue) {
  for (std::uint32_t li = 0; li < positions_.size(); ++li) {
    restart_clock(queue.now(), li, queue);
  }
  for (const ScriptedFault& f : options_.script) {
    queue.schedule(f.time, EventType::kServerFail, f.server);
  }
}

std::optional<double> FaultInjector::take_fail(double now, std::uint32_t li) {
  GC_CHECK(li < positions_.size(), "FaultInjector: unknown server");
  // Scripted events fire at their exact scheduled time, so a fail event at
  // the next scripted time of this position is that entry; anything else is
  // the background clock.
  Position& p = positions_[li];
  if (p.next_scripted < p.script.size() && p.script[p.next_scripted].time == now) {
    return p.script[p.next_scripted++].repair_after_s;
  }
  p.background_armed = false;
  return std::nullopt;
}

void FaultInjector::after_fail(double now, std::uint32_t li,
                               std::optional<double> scripted_repair, bool crashed,
                               EventQueue& queue) {
  if (!scripted_repair) {
    // A crash waits for its repair (the clock resumes from there); a clock
    // that ticked while the server was OFF or already FAILED restarts.
    if (crashed) {
      schedule_repair(now, li, queue);
    } else {
      restart_clock(now, li, queue);
    }
  } else if (crashed && std::isfinite(*scripted_repair)) {
    queue.schedule(now + *scripted_repair, EventType::kServerRepair, li);
  }
  // else: a scripted crash that is never repaired, or a scripted fault on
  // an unpowered server, which is dropped.
}

void FaultInjector::schedule_repair(double now, std::uint32_t li, EventQueue& queue) {
  GC_CHECK(li < positions_.size(), "FaultInjector: unknown server");
  Position& p = positions_[li];
  const double ttr = -options_.mttr_s * std::log(p.clock.uniform01_open_left());
  queue.schedule(now + ttr, EventType::kServerRepair, li);
}

void FaultInjector::restart_clock(double now, std::uint32_t li, EventQueue& queue) {
  GC_CHECK(li < positions_.size(), "FaultInjector: unknown server");
  Position& p = positions_[li];
  if (options_.mtbf_s <= 0.0 || p.background_armed) return;
  const double ttf = -options_.mtbf_s * std::log(p.clock.uniform01_open_left());
  queue.schedule(now + ttf, EventType::kServerFail, li);
  p.background_armed = true;
}

std::optional<double> FaultInjector::sample_boot_hang(std::uint32_t li,
                                                      double boot_delay_s) {
  if (options_.boot_hang_prob <= 0.0 ||
      positions_[li].clock.uniform01() >= options_.boot_hang_prob) {
    return std::nullopt;
  }
  return kBootTimeoutBootDelays * boot_delay_s;
}

}  // namespace gc
