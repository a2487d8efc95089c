// Fault injection for both simulation engines: the one fault plane.
//
// Two fault sources, both driving the server lifecycle extensions in
// sim/server.h ({BOOTING, ON, SHUTTING_DOWN} -> FAILED -> OFF):
//
//   * a background fail-stop process: per-server exponential time-to-failure
//     (mean `mtbf_s`) while the server is powered, with exponential repair
//     times (mean `mttr_s`).  A failure that lands on an OFF or already
//     FAILED server is a no-op (machines that are not running do not
//     crash) and the failure clock simply restarts;
//   * boot hangs: each boot command independently hangs with probability
//     `boot_hang_prob`; a hung boot never completes and is declared failed
//     after kBootTimeoutBootDelays boot delays (the firmware/watchdog
//     timeout), then repaired like any other crash.
//
// Scripted faults make tests reproducible: each entry crashes a specific
// server at a specific time, with an optional fixed repair delay
// (defaulting to "never repaired").  An entry whose server is OFF or
// already FAILED at that time is dropped silently.
//
// One FaultInjector is the fault process of one fleet slice, addressed by
// FleetStore position li: the sequential engine holds one over the whole
// fleet (sim/simulation.h), each shard of the sharded engine one over its
// strided slice (sim/sharded.h).  The injector decides *when* faults
// happen — every kServerFail / kServerRepair is scheduled here — and the
// engine decides what a crash means: the handlers below call the engine's
// fail_server / timeout_boot / repair_server (a Cluster, or a Shard).
//
// Determinism: every position's failure clock draws from its own RNG
// stream, passed in by the engine (each engine derives its own; DESIGN.md
// §11.4), so fault sequences are independent of event interleaving and
// bitwise reproducible across thread counts.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/event_queue.h"
#include "stats/rng.h"

namespace gc {

// A hung boot stays BOOTING this many boot delays before it is declared
// failed (a watchdog would not fire earlier than the expected boot time).
inline constexpr double kBootTimeoutBootDelays = 3.0;

struct ScriptedFault {
  double time = 0.0;          // crash instant (simulation seconds)
  std::uint32_t server = 0;   // victim
  // Seconds from the crash until the repair completes; the default
  // (infinity) means the server stays down for the rest of the run.
  double repair_after_s = std::numeric_limits<double>::infinity();
};

struct FaultOptions {
  // Mean time between failures of one powered server; 0 disables the
  // background fault process.
  double mtbf_s = 0.0;
  // Mean time to repair a crashed server (exponential).
  double mttr_s = 600.0;
  // Probability that any individual boot command hangs instead of
  // completing.
  double boot_hang_prob = 0.0;
  // Reproducible crash schedule, in addition to the processes above.
  std::vector<ScriptedFault> script;
  // RNG seed; 0 derives one from the cluster's dispatch seed so that
  // replications (which re-seed the RunSpec) get independent fault
  // histories automatically.
  std::uint64_t seed = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return mtbf_s > 0.0 || boot_hang_prob > 0.0 || !script.empty();
  }
  // Throws std::invalid_argument on inconsistent settings, including a
  // scripted fault whose server is not below `num_servers` (the default
  // leaves the fleet size unchecked).
  void validate(unsigned num_servers = std::numeric_limits<unsigned>::max()) const;

  // One boot command's hang draw from `rng`: nullopt = the boot proceeds
  // normally; a value = the boot hangs and is declared failed after that
  // many seconds.  Draws only when boot_hang_prob > 0.
  [[nodiscard]] std::optional<double> sample_boot_hang(Rng& rng,
                                                       double boot_delay_s) const;
};

class FaultInjector {
 public:
  // The fault process of positions li < clocks.size(), position li being
  // global server li * stride + offset (the whole fleet: stride 1, offset
  // 0; shard k of K: stride K, offset k).  clocks[li] is position li's
  // failure-clock stream.  Boot hangs draw from `boot_stream` when given,
  // else from the booting position's own clock.  `options` must already be
  // validated against the fleet size.
  FaultInjector(const FaultOptions& options, std::vector<Rng> clocks,
                std::optional<Rng> boot_stream, std::uint32_t stride = 1,
                std::uint32_t offset = 0);

  // Schedules every background failure clock, then the owned scripted
  // faults in time order.  Call once, before the first event is popped.
  void arm(EventQueue& queue);

  // kServerFail fired: `engine.fail_server` crashes the server if it is
  // powered; then the repair (or, for an unpowered server, the next
  // background failure) is scheduled.  Returns true if the server crashed.
  template <typename Engine>
  bool on_fail_event(double now, std::uint32_t li, Engine& engine, EventQueue& queue) {
    const std::optional<double> scripted_repair = take_fail(now, li);
    const bool crashed = engine.fail_server(now, li);
    after_fail(now, li, scripted_repair, crashed, queue);
    return crashed;
  }

  // kBootTimeout fired: the boot hung; `engine.timeout_boot` declares the
  // server failed and its repair is scheduled.
  template <typename Engine>
  void on_boot_timeout(double now, std::uint32_t li, Engine& engine, EventQueue& queue) {
    engine.timeout_boot(now, li);
    schedule_repair(now, li, queue);
  }

  // kServerRepair fired: `engine.repair_server` returns the server to OFF
  // and its failure clock restarts.
  template <typename Engine>
  void on_repair_event(double now, std::uint32_t li, Engine& engine, EventQueue& queue) {
    engine.repair_server(now, li);
    restart_clock(now, li, queue);
  }

  // Called by the engine for every boot command of position li (see
  // FaultOptions::sample_boot_hang).
  [[nodiscard]] std::optional<double> sample_boot_hang(std::uint32_t li,
                                                       double boot_delay_s);

 private:
  struct Position {
    Rng clock;
    // This position's scripted entries in firing order, matched FIFO as
    // their kServerFail events fire.
    std::vector<ScriptedFault> script;
    std::size_t next_scripted = 0;
    // Exactly one background failure chain exists per position.
    bool background_armed = false;
  };

  // Which fault a kServerFail at `now` is: the position's next scripted
  // entry if it is due exactly now (its repair delay), else the background
  // clock (nullopt).
  [[nodiscard]] std::optional<double> take_fail(double now, std::uint32_t li);
  void after_fail(double now, std::uint32_t li, std::optional<double> scripted_repair,
                  bool crashed, EventQueue& queue);
  void schedule_repair(double now, std::uint32_t li, EventQueue& queue);
  void restart_clock(double now, std::uint32_t li, EventQueue& queue);

  FaultOptions options_;  // its script: the owned entries by time, li-addressed
  std::optional<Rng> boot_stream_;
  std::vector<Position> positions_;
};

}  // namespace gc
