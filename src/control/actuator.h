// Ack/retry command actuation over a lossy control channel (DESIGN.md §8.2).
//
// With a perfect management network "command = applied" and this layer is
// pass-through.  Over sim/control_channel a command can be dropped,
// delayed past its successor, or applied without its ack making it back —
// so the controller side runs a small per-command-kind protocol:
//
//   * every issued command gets a monotonically increasing *generation*
//     per kind (target-m and frequency are independent lanes).  The fleet
//     applies a delivered command only when its generation exceeds the
//     last applied one, so reordered or retransmitted commands are
//     idempotent — a duplicate is detected, re-acked (the original ack may
//     have been the casualty) and not re-applied;
//   * an unacked command is retransmitted after `ack_timeout_s`, then at
//     intervals that start at `ack_timeout_s` and double up to
//     kBackoffCapS, each stretched by a uniform jitter factor in
//     [1, 1 + kJitterFrac), up to kRetryBudget retransmissions.  Retries
//     reuse the original
//     generation: the protocol re-asserts *that* command, it does not
//     invent new ones;
//   * issuing a new command of the same kind supersedes the outstanding
//     one — its retries stop, and its ack (if it ever arrives) is counted
//     as stale and ignored;
//   * when the budget is exhausted the actuator reconciles to *acked*
//     state: it stops asserting the command and reports the last
//     acknowledged value, so the controller's next plan starts from what
//     the fleet confirmed rather than what was wished for.  (The next
//     control tick re-plans and re-issues anyway; exhaustion only stops
//     the retransmit burst.)
//
// Determinism: the jitter RNG is drawn only when a retransmission
// actually fires, so a loss-free run consumes no randomness (same
// discipline as sim/control_channel).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cp/frames.h"
#include "stats/rng.h"

namespace gc {

class SnapshotWriter;  // cp/snapshot.h
class SnapshotReader;

// CommandKind and Command (= CommandFrame) moved to cp/frames.h — they are
// the control plane's fleet-ward wire message; included above so existing
// actuator/simulator code keeps compiling unchanged.

struct ActuatorOptions {
  // When false, commands are fire-and-forget: still generation-stamped
  // (reorder protection) but never acked or retried — the "naive DCP"
  // contrast in bench/fig15_control_faults.
  bool enabled = false;
  // Ack wait before the first retransmission, and the first retry
  // interval (it doubles per retry).
  double ack_timeout_s = 1.0;

  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

class CommandActuator {
 public:
  // Upper bound on the backed-off interval.
  static constexpr double kBackoffCapS = 60.0;
  // Uniform jitter applied to each backoff: wait *= 1 + kJitterFrac * U[0,1).
  static constexpr double kJitterFrac = 0.1;
  // Retransmissions per command before reconciling to acked state.
  static constexpr unsigned kRetryBudget = 6;

  CommandActuator(const ActuatorOptions& options, Rng rng);

  // Stamps and (when enabled) tracks a new command, superseding any
  // outstanding command of the same kind.
  [[nodiscard]] Command issue(double now, CommandKind kind, double value,
                              std::uint32_t era);

  // Collects retransmissions due at `now` into `due` (appended).  Call on
  // every executed control tick.
  void poll(double now, std::vector<Command>& due);

  // Ack from the fleet for (kind, gen).  Stale acks (superseded or
  // already-acked generations) are counted and ignored.
  void on_ack(double now, CommandKind kind, std::uint64_t gen);

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
  // Last value of `kind` the fleet acknowledged; nullopt before any ack.
  [[nodiscard]] std::optional<double> acked_value(CommandKind kind) const noexcept;
  [[nodiscard]] bool outstanding(CommandKind kind) const noexcept;

  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_count_; }
  [[nodiscard]] std::uint64_t stale_acks() const noexcept { return stale_acks_; }
  [[nodiscard]] std::uint64_t exhausted() const noexcept { return exhausted_; }

  // Checkpoint/restore (cp/snapshot.h): both lanes (outstanding command,
  // retry deadline/backoff, generation counter, acked value), the protocol
  // totals and the jitter RNG state — a restored actuator retransmits at
  // the exact instants, with the exact jitter draws, the saved one would
  // have.  Options are configuration and travel with the caller.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct Lane {
    bool outstanding = false;
    Command cmd;
    double next_retry_s = 0.0;
    double backoff_s = 0.0;
    unsigned retransmits = 0;
    std::uint64_t next_gen = 1;
    std::optional<double> acked_value;
  };
  [[nodiscard]] Lane& lane(CommandKind kind) noexcept {
    return lanes_[static_cast<int>(kind)];
  }
  [[nodiscard]] const Lane& lane(CommandKind kind) const noexcept {
    return lanes_[static_cast<int>(kind)];
  }

  ActuatorOptions options_;
  Rng rng_;
  Lane lanes_[kNumCommandKinds];
  std::uint64_t retries_ = 0;
  std::uint64_t acked_count_ = 0;
  std::uint64_t stale_acks_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace gc
