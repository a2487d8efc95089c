// Control-plane wire messages (DESIGN.md §12.1).
//
// The control plane is transport-agnostic: every driver — the in-process
// simulator's control loop (sim/control_loop.h), the artifact replayer
// (cp/replay.h, tools/gcreplay) and the socket feed (cp/wire.h) — speaks
// exactly two POD message types:
//
//   * TelemetryFrame — one fleet-state sample travelling controller-ward.
//     Over a degraded link it may arrive late, out of order (the facade
//     discards samples older than the newest delivered one) or never.
//   * CommandFrame — one actuation command travelling fleet-ward, stamped
//     with a per-kind generation (reorder/duplicate protection) and the
//     controller incarnation era that issued it (safe mode rejects
//     commands from dead incarnations).
//
// Both are flat PODs with no simulator types: this header must never
// include anything from sim/ (enforced by review; the layering test is
// that gc_cp links without gc_sim).
#pragma once

#include <cstdint>

namespace gc {

// A fleet-state sample as shipped over the telemetry link.  `sample_time`
// is when the fleet measured it, not when it arrives; the receiving facade
// derives the observation age from the difference.
struct TelemetryFrame {
  double sample_time = 0.0;
  // Arrivals / elapsed time over the short period ending at sample_time.
  double rate = 0.0;
  unsigned serving = 0;
  unsigned committed = 0;  // serving + booting
  unsigned powered = 0;
  unsigned available = 0;  // ground-truth servers not FAILED
  std::uint64_t jobs_in_system = 0;
};

// The two independent actuation lanes: the server-count target (VOVF) and
// the fleet frequency (DVFS).
enum class CommandKind : int { kTarget = 0, kSpeed = 1 };
inline constexpr int kNumCommandKinds = 2;
[[nodiscard]] const char* to_string(CommandKind kind) noexcept;

// One in-flight control command.  `gen` increases monotonically per kind;
// the fleet applies a delivered command only when its generation beats the
// last applied one, so retransmitted or reordered frames are idempotent.
// `era` stamps the controller incarnation (bumped on every controller
// recovery); the fleet's safe mode rejects commands from dead eras.
struct CommandFrame {
  CommandKind kind = CommandKind::kTarget;
  double value = 0.0;
  std::uint64_t gen = 0;
  std::uint32_t era = 0;
};

// Historical name used throughout the actuator/simulator pair; the wire
// message and the in-memory command are deliberately the same POD.
using Command = CommandFrame;

}  // namespace gc
