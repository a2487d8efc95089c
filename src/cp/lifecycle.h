// Causal lifecycle tracking for the control loop (DESIGN.md §14).
//
// Every frame the management plane moves already carries, or can derive, a
// deterministic identity from existing monotone counters — no RNG, no
// event-queue footprint, nothing on the wire changes:
//
//   command   id = (gen << 1) | kind      (per-lane generation, cp/frames.h)
//   telemetry id = send-site sequence     (next_frame_id(kTelemetry))
//   ack       id = send-site sequence     (next_frame_id(kAck))
//   tick      id = facade tick count      (cp.ticks)
//
// On top of that identity the LifecycleTracker records the full state
// machine of every command:
//
//   issued ──sent──> (retransmitted ×N) ──acked/applied──> completed
//      │                                         terminal: superseded
//      └────────────────────────────────────────terminal: reconciled
//
// "superseded" — a newer command of the same kind replaced it before an
// ack; "reconciled" — the actuator's retry budget was spent and the
// controller fell back to the last acknowledged value.  Per-stage latency
// LogHistograms (decision→ack, decision→apply, ack↔apply skew, end-to-end,
// telemetry age at decision) and drop attribution (every consumed frame
// charged to the link or chaos op that ate it: cp.drop.<frame>.<cause>)
// feed SimResult, Prometheus and the `gcinspect --lifecycle` view.
//
// Determinism contract: the tracker is strictly observational.  It never
// draws randomness, never schedules events, and is deliberately excluded
// from ControlPlane::snapshot()/restore() — attaching it cannot perturb a
// policy decision, a retry instant or a golden checksum.  All of its
// counters are deterministic functions of the (deterministic) event
// sequence, so they stay bit-identical across reruns and across sharded
// K (test_sharded_determinism compares full counter snapshots).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "cp/frames.h"
#include "obs/counters.h"
#include "obs/prometheus.h"
#include "stats/log_histogram.h"

namespace gc {

class TraceCollector;  // obs/trace.h

// The four frame populations that cross the management plane, for drop
// attribution.  (Commands and acks travel opposite directions; the matrix
// does not care.)
enum class FrameClass : int { kTelemetry = 0, kTick = 1, kCommand = 2, kAck = 3 };
inline constexpr int kNumFrameClasses = 4;
[[nodiscard]] const char* to_string(FrameClass fc) noexcept;

// What consumed a frame that never reached its application layer.
enum class DropCause : int {
  kChannel = 0,     // sim/control_channel loss draw
  kChaosDrop,       // cp/chaos drop@N
  kChaosCorrupt,    // cp/chaos corrupt@N (CRC trailer rejected the frame)
  kChaosTruncate,   // cp/chaos truncate@N (stream cut mid-frame)
  kWireCrc,         // CRC rejection outside a chaos schedule
};
inline constexpr int kNumDropCauses = 5;
[[nodiscard]] const char* to_string(DropCause cause) noexcept;

// Deterministic command lifecycle id: the per-lane generation is already
// monotone and already on the wire, so (gen, kind) needs no new state.
[[nodiscard]] constexpr std::uint64_t command_lifecycle_id(
    CommandKind kind, std::uint64_t gen) noexcept {
  return (gen << 1) | static_cast<std::uint64_t>(static_cast<int>(kind));
}

// FrameClass × DropCause attribution matrix.  The invariant the chaos and
// channel tests gate on: total() equals the sum of every cell, and every
// consumed frame is charged exactly once — so attribution counters sum
// exactly to total drops.
class DropAttribution {
 public:
  void charge(FrameClass fc, DropCause cause, std::uint64_t n = 1) noexcept {
    cells_[static_cast<int>(fc)][static_cast<int>(cause)] += n;
  }
  [[nodiscard]] std::uint64_t count(FrameClass fc, DropCause cause) const noexcept {
    return cells_[static_cast<int>(fc)][static_cast<int>(cause)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;
  // Emits `cp.drop.<frame>.<cause>` for every non-zero cell (deterministic
  // enum order) plus the always-present `cp.drop.total`.
  void counters_into(CountersSnapshot& snap) const;

 private:
  std::uint64_t cells_[kNumFrameClasses][kNumDropCauses] = {};
};

// One command's reconstructed timeline, exported per-record to
// <prefix>.lifecycle.jsonl and consumed by `gcinspect --lifecycle`.
struct CommandLifecycle {
  enum class State : int {
    kInFlight = 0,   // issued, terminal outcome not yet known
    kCompleted,      // every expected confirmation (ack/apply) arrived
    kSuperseded,     // replaced by a newer same-kind command before an ack
    kReconciled,     // retry budget exhausted; controller fell back to acked
  };

  CommandKind kind = CommandKind::kTarget;
  std::uint64_t gen = 0;
  std::uint32_t era = 0;
  double value = 0.0;
  double issued_s = 0.0;
  double obs_age_s = 0.0;      // telemetry age at the issuing decision
  unsigned retransmits = 0;
  unsigned frame_drops = 0;    // wire copies of this command eaten en route
  double last_sent_s = 0.0;    // issue or latest retransmission
  double acked_s = -1.0;       // -1 = never acknowledged
  double applied_s = -1.0;     // -1 = never (reported) applied
  State state = State::kInFlight;

  [[nodiscard]] std::uint64_t id() const noexcept {
    return command_lifecycle_id(kind, gen);
  }
};
[[nodiscard]] const char* to_string(CommandLifecycle::State state) noexcept;

class LifecycleTracker {
 public:
  LifecycleTracker() = default;

  // Optional Chrome trace sink: one async 'b'/'e' lane per in-flight
  // command (cat "cp.lifecycle", id = truncated lifecycle id) plus instant
  // markers for retransmits/supersessions/reconciliations.  Null detaches.
  void set_trace(TraceCollector* trace) noexcept { trace_ = trace; }

  // Which confirmations a command needs before it counts as completed.
  // The facade sets expect_acks from ActuatorOptions::enabled; the driver
  // opts into expect_applies when it reports fleet-side applies (the sim
  // adapter does, the replay/wire drivers cannot).
  void set_expect_acks(bool v) noexcept { expect_acks_ = v; }
  void set_expect_applies(bool v) noexcept { expect_applies_ = v; }

  // -- command state transitions --------------------------------------------
  void on_issued(double now, const CommandFrame& frame, double obs_age_s);
  void on_retransmit(double now, const CommandFrame& frame);
  void on_acked(double now, CommandKind kind, std::uint64_t gen);
  // Driver-reported fleet-side application of (kind, gen).
  void on_applied(double now, CommandKind kind, std::uint64_t gen);
  // The actuator gave up on this lane (budget exhausted, reconciled to
  // acked state).  Idempotent; call whenever the lane has no outstanding
  // command.
  void on_lane_reconciled(double now, CommandKind kind);

  // -- frame-level drop attribution -----------------------------------------
  void on_frame_dropped(FrameClass fc, DropCause cause) {
    attribution_.charge(fc, cause);
  }
  // Command drops additionally tally on the per-command record.
  void on_command_frame_dropped(double now, const CommandFrame& frame,
                                DropCause cause);
  // Per-class monotone send sequence — the lifecycle id of telemetry/ack
  // frames (commands derive theirs from (gen, kind) instead).
  std::uint64_t next_frame_id(FrameClass fc) noexcept {
    return ++frame_seq_[static_cast<int>(fc)];
  }

  // Closes every still-open record (state preserved: a record that never
  // confirmed stays "in-flight" in the export).  Call once at end of run
  // before records().
  void finalize_all(double now);

  // All records, closed and open, ordered by (issued_s, id); render them
  // with write_lifecycle_jsonl below.
  [[nodiscard]] std::vector<CommandLifecycle> records() const;

  // -- read-out --------------------------------------------------------------
  [[nodiscard]] const DropAttribution& attribution() const noexcept {
    return attribution_;
  }
  [[nodiscard]] const LogHistogram& ack_latency() const noexcept { return ack_latency_; }
  [[nodiscard]] const LogHistogram& apply_latency() const noexcept {
    return apply_latency_;
  }
  [[nodiscard]] const LogHistogram& e2e_latency() const noexcept { return e2e_; }
  [[nodiscard]] const LogHistogram& obs_age() const noexcept { return obs_age_; }
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }
  [[nodiscard]] std::uint64_t applied() const noexcept { return applied_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t superseded() const noexcept { return superseded_; }
  [[nodiscard]] std::uint64_t reconciled() const noexcept { return reconciled_; }
  // Acks/applies for commands no longer in flight (stale duplicates, or a
  // restored facade seeing pre-crash confirmations).
  [[nodiscard]] std::uint64_t late_events() const noexcept { return late_events_; }

  // cp.lifecycle.* counters, `cp.lifecycle.<stage>:<quantile>` gauges (the
  // literal names ci/check.sh gates through gcinspect) and cp.drop.*.
  void counters_into(CountersSnapshot& snap) const;
  // The per-stage histograms named for Prometheus exposition, e.g.
  // cp.lifecycle.ack_latency_seconds — pass to to_prometheus_text().
  [[nodiscard]] std::vector<PrometheusHistogram> prometheus_histograms() const;

 private:
  // Open records per lane, keyed by generation.  Records stay here after a
  // terminal supersede/reconcile so late acks/applies still land on the
  // right timeline; completion (or finalize_all) moves them to done_.
  using LaneMap = std::map<std::uint64_t, CommandLifecycle>;

  void maybe_complete(LaneMap& lane, LaneMap::iterator it, double now);
  void close(LaneMap& lane, LaneMap::iterator it);
  void end_span(double now, const CommandLifecycle& rec);

  TraceCollector* trace_ = nullptr;
  bool expect_acks_ = false;
  bool expect_applies_ = false;
  LaneMap open_[kNumCommandKinds];
  std::vector<CommandLifecycle> done_;
  std::uint64_t max_records_ = 1u << 20;  // eviction backstop for soak runs
  std::uint64_t evicted_ = 0;
  std::uint64_t frame_seq_[kNumFrameClasses] = {};
  DropAttribution attribution_;
  LogHistogram ack_latency_;
  LogHistogram apply_latency_;
  LogHistogram ack_to_apply_;
  LogHistogram e2e_;
  LogHistogram obs_age_;
  std::uint64_t issued_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t superseded_ = 0;
  std::uint64_t reconciled_ = 0;
  std::uint64_t late_events_ = 0;
};

// Renders records one JSON object per line, the `gcinspect --lifecycle`
// input — used by the benches to write `<prefix>.lifecycle.jsonl` from
// SimResult::command_lifecycles.
void write_lifecycle_jsonl(std::ostream& os,
                           const std::vector<CommandLifecycle>& records);

}  // namespace gc
