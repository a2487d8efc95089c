#include "control/actuator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cp/snapshot.h"

namespace gc {

const char* to_string(CommandKind kind) noexcept {
  switch (kind) {
    case CommandKind::kTarget: return "target";
    case CommandKind::kSpeed: return "speed";
  }
  return "?";
}

void ActuatorOptions::validate() const {
  if (!(ack_timeout_s > 0.0) || !std::isfinite(ack_timeout_s)) {
    throw std::invalid_argument(
        "ActuatorOptions: ack_timeout_s must be finite and > 0");
  }
}

CommandActuator::CommandActuator(const ActuatorOptions& options, Rng rng)
    : options_(options), rng_(rng) {
  options_.validate();
}

Command CommandActuator::issue(double now, CommandKind kind, double value,
                               std::uint32_t era) {
  Lane& l = lane(kind);
  // A newer command supersedes the outstanding one: its retries stop and
  // its eventual ack (if any) will read as stale.
  Command cmd;
  cmd.kind = kind;
  cmd.value = value;
  cmd.gen = l.next_gen++;
  cmd.era = era;
  if (options_.enabled) {
    l.outstanding = true;
    l.cmd = cmd;
    l.backoff_s = options_.ack_timeout_s;
    l.next_retry_s = now + options_.ack_timeout_s;
    l.retransmits = 0;
  }
  return cmd;
}

void CommandActuator::poll(double now, std::vector<Command>& due) {
  if (!options_.enabled) return;
  for (Lane& l : lanes_) {
    if (!l.outstanding || now + 1e-9 < l.next_retry_s) continue;
    if (l.retransmits >= kRetryBudget) {
      // Budget spent: reconcile to acked state.  The command stops being
      // asserted; acked_value keeps the last confirmed value so the next
      // plan starts from fleet truth, not the unconfirmed wish.
      l.outstanding = false;
      ++exhausted_;
      continue;
    }
    ++l.retransmits;
    ++retries_;
    // Drawn only when a retransmission actually fires (determinism
    // contract: loss-free runs consume no randomness).
    const double wait =
        std::min(l.backoff_s, kBackoffCapS) * (1.0 + kJitterFrac * rng_.uniform01());
    l.next_retry_s = now + wait;
    l.backoff_s = std::min(l.backoff_s * 2.0, kBackoffCapS);
    due.push_back(l.cmd);
  }
}

void CommandActuator::on_ack(double /*now*/, CommandKind kind, std::uint64_t gen) {
  Lane& l = lane(kind);
  if (!l.outstanding || gen != l.cmd.gen) {
    // Superseded, already acked, or a duplicate ack from a retransmission.
    ++stale_acks_;
    return;
  }
  l.acked_value = l.cmd.value;
  l.outstanding = false;
  ++acked_count_;
}

std::optional<double> CommandActuator::acked_value(CommandKind kind) const noexcept {
  return lane(kind).acked_value;
}

bool CommandActuator::outstanding(CommandKind kind) const noexcept {
  return lane(kind).outstanding;
}

void CommandActuator::save(SnapshotWriter& w) const {
  for (const Lane& l : lanes_) {
    w.boolean(l.outstanding);
    w.u8(static_cast<std::uint8_t>(l.cmd.kind));
    w.f64(l.cmd.value);
    w.u64(l.cmd.gen);
    w.u32(l.cmd.era);
    w.f64(l.next_retry_s);
    w.f64(l.backoff_s);
    w.u32(l.retransmits);
    w.u64(l.next_gen);
    w.boolean(l.acked_value.has_value());
    w.f64(l.acked_value.value_or(0.0));
  }
  w.u64(retries_);
  w.u64(acked_count_);
  w.u64(stale_acks_);
  w.u64(exhausted_);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
}

void CommandActuator::load(SnapshotReader& r) {
  for (Lane& l : lanes_) {
    l.outstanding = r.boolean();
    const std::uint8_t kind = r.u8();
    if (kind >= kNumCommandKinds) {
      throw SnapshotError("actuator: command kind out of range in snapshot");
    }
    l.cmd.kind = static_cast<CommandKind>(kind);
    l.cmd.value = r.f64();
    l.cmd.gen = r.u64();
    l.cmd.era = r.u32();
    l.next_retry_s = r.f64();
    l.backoff_s = r.f64();
    l.retransmits = r.u32();
    l.next_gen = r.u64();
    const bool has_acked = r.boolean();
    const double acked = r.f64();
    l.acked_value = has_acked ? std::optional<double>(acked) : std::nullopt;
  }
  retries_ = r.u64();
  acked_count_ = r.u64();
  stale_acks_ = r.u64();
  exhausted_ = r.u64();
  Rng::State state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
}

}  // namespace gc
