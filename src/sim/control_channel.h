// The controller <-> fleet management network (DESIGN.md §8).
//
// Today's simulator hands the controller a perfect, instant view of the
// fleet and applies its commands in the same instruction.  Real
// provisioning loops sit behind a management network: telemetry arrives
// late or not at all, power-state commands are lost, delayed or
// reordered, and acks can vanish on the way back.  ControlChannel models
// that path as three independent unidirectional links —
//
//   * telemetry — fleet state samples travelling controller-ward;
//   * command   — target-m / frequency commands travelling fleet-ward;
//   * ack       — per-command acknowledgements travelling controller-ward
//                 (only used when the actuator's ack/retry protocol is on,
//                 control/actuator.h);
//
// each with an independent per-message drop probability and a latency of
// `latency_base_s` plus a uniform jitter in [0, latency_jitter_s).
// Reordering is emergent: two messages whose jittered latencies cross
// arrive out of order, and the receivers detect it (sample timestamps for
// telemetry, generation numbers for commands/acks).
//
// Determinism contract (the reason this type exists instead of three
// inline coin flips): every link draws from its own dedicated RNG stream,
// and draws *only* when the outcome could differ from the perfect channel
// — no draw when drop_prob == 0, no draw when latency_jitter_s == 0.  A
// zero-loss / zero-latency channel therefore consumes no randomness and
// schedules no events (delay 0.0 means "deliver synchronously"), so
// enabling it is bit-identical to today's pinned determinism goldens
// (tests/test_obs_determinism.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/rng.h"

namespace gc {

struct ChannelLinkOptions {
  // Probability an individual message is silently lost.
  double drop_prob = 0.0;
  // Fixed propagation delay for every delivered message.
  double latency_base_s = 0.0;
  // Uniform extra delay in [0, latency_jitter_s); > 0 enables reordering.
  double latency_jitter_s = 0.0;

  // Throws std::invalid_argument on out-of-range settings.
  void validate(const char* link_name) const;
  [[nodiscard]] bool perfect() const noexcept {
    return drop_prob == 0.0 && latency_base_s == 0.0 && latency_jitter_s == 0.0;
  }
};

struct ControlChannelOptions {
  // Master switch; when false the simulation keeps the legacy synchronous
  // path and none of the link options are consulted.
  bool enabled = false;
  ChannelLinkOptions telemetry;
  ChannelLinkOptions command;
  ChannelLinkOptions ack;
  // 0 derives from the cluster's dispatch seed, keeping replications on
  // independent channel histories (same scheme as FaultOptions::seed).
  std::uint64_t seed = 0;

  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

// Per-link outcome sampler.  `sample()` returns the delivery delay, or
// nullopt when the message was dropped.  Counters are cumulative over the
// channel's lifetime (one simulation run).
class ControlChannel {
 public:
  ControlChannel(const ControlChannelOptions& options, std::uint64_t derived_seed);

  [[nodiscard]] std::optional<double> telemetry_delay() {
    return sample(kTelemetry);
  }
  [[nodiscard]] std::optional<double> command_delay() { return sample(kCommand); }
  [[nodiscard]] std::optional<double> ack_delay() { return sample(kAck); }

  struct LinkCounters {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
  };
  [[nodiscard]] const LinkCounters& telemetry_counters() const noexcept {
    return links_[kTelemetry].counters;
  }
  [[nodiscard]] const LinkCounters& command_counters() const noexcept {
    return links_[kCommand].counters;
  }
  [[nodiscard]] const LinkCounters& ack_counters() const noexcept {
    return links_[kAck].counters;
  }

 private:
  enum LinkIndex { kTelemetry = 0, kCommand = 1, kAck = 2, kNumLinks = 3 };
  struct Link {
    ChannelLinkOptions options;
    Rng rng{0, 0};
    LinkCounters counters;
  };

  [[nodiscard]] std::optional<double> sample(LinkIndex which);

  Link links_[kNumLinks];
};

// Payload store for in-flight channel messages: the EventQueue carries
// only a 32-bit subject, so messages park here and the subject is the
// slot index.  Slots are recycled through a free list; the simulation
// never has more than a handful in flight (bounded by ticks x latency).
template <typename T>
class SlotStore {
 public:
  [[nodiscard]] std::uint32_t put(const T& value) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = value;
      return slot;
    }
    slots_.push_back(value);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  [[nodiscard]] T take(std::uint32_t slot) {
    T value = slots_[slot];
    free_.push_back(slot);
    return value;
  }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return slots_.size() - free_.size();
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

// Scripted controller fail-stop windows plus an optional random outage
// process, and the watchdog that guards the fleet while the controller is
// dark (DESIGN.md §8.3).  While down, control ticks still fire (time
// keeps passing at the fleet) but the controller is not consulted; after
// kWatchdogTicks consecutive missed short ticks the fleet falls back to
// a safe static policy — every server on at nominal frequency — and hands
// control back to the policy once a post-recovery command arrives.
// Consecutive missed *short* ticks before the fleet declares the
// controller dead and enters safe mode.
inline constexpr unsigned kWatchdogTicks = 3;

struct ControllerOutage {
  double start_s = 0.0;
  double duration_s = 0.0;
};

// What the controller process remembers when it comes back from an outage
// (DESIGN.md §13.4).
enum class ControllerRecoveryMode {
  // The controller's in-memory state survived the outage (a process pause
  // or a network partition, not a crash).  Historical behavior, and the
  // default: every pinned golden was recorded under it.
  kPreserve = 0,
  // Crash + restart from durable state: at the recovery instant the facade
  // is serialized (cp/snapshot.h), torn down, rebuilt empty and restored.
  // By the snapshot bit-identity contract this must not change a single
  // command relative to kPreserve — tests/test_recovery asserts it.
  kWarmRestart = 1,
  // Crash with durable state lost: the facade restarts from the pristine
  // t = 0 image (boot observation, empty actuator lanes, zeroed
  // estimator).  The policy re-learns the operating point from scratch,
  // which is exactly the degradation bench/fig17_recovery measures.
  kColdRestart = 2,
};

struct ControllerFaultOptions {
  // Outage windows; they may overlap (the controller is down while any
  // window is open).
  std::vector<ControllerOutage> script;
  // When false the watchdog only counts (no safe-mode fallback); lost
  // ticks then leave the fleet frozen in its last commanded state.
  bool safe_mode = true;
  // What the controller remembers once the outage ends (see enum above).
  ControllerRecoveryMode recovery = ControllerRecoveryMode::kPreserve;

  [[nodiscard]] bool enabled() const noexcept { return !script.empty(); }
  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

}  // namespace gc
