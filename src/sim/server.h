// One simulated server: a frequency-scalable FCFS queue with a VOVF power
// state machine.
//
// State machine (PowerState plus a `draining` flag while ON):
//
//   OFF --start_boot--> BOOTING --finish_boot--> ON
//   ON(draining, idle) --begin_shutdown--> SHUTTING_DOWN --finish--> OFF
//   {BOOTING, ON, SHUTTING_DOWN} --fail--> FAILED --finish_repair--> OFF
//
// `fail` is a fail-stop crash (fault injection, sim/fault_injector.h): any
// in-flight and queued jobs are returned to the caller (the sequential
// engine re-dispatches them, the sharded one loses them) and the server
// draws off power until the repair completes.
//
// Work accounting: a job of size w runs at `speed` work-seconds per second,
// so it completes after remaining/speed seconds *at constant speed*.  When
// the speed changes mid-service, `sync_progress` first banks the work done
// at the old speed; the fleet store then reschedules the departure event
// from the new `completion_eta`.
//
// The server never touches the event queue itself — its FleetStore
// (sim/fleet_store.h) owns event scheduling — but it remembers the EventIds
// of its pending events so the store can cancel/reschedule them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "power/energy_meter.h"
#include "sim/event_queue.h"
#include "sim/job.h"

namespace gc {

class Server {
 public:
  // Starts life OFF (or ON at `initial_speed` if `initially_on`).
  Server(std::uint32_t index, const PowerModel* power, double initial_speed,
         bool initially_on, double start_time);

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] PowerState state() const noexcept { return state_; }
  [[nodiscard]] bool draining() const noexcept { return draining_; }
  // ON and accepting new work.
  [[nodiscard]] bool serving() const noexcept {
    return state_ == PowerState::kOn && !draining_;
  }
  [[nodiscard]] bool failed() const noexcept { return state_ == PowerState::kFailed; }
  [[nodiscard]] double speed() const noexcept { return speed_; }
  [[nodiscard]] bool busy() const noexcept { return current_.has_value(); }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return (queue_.size() - head_) + (current_ ? 1 : 0);
  }
  // Remaining work (at s = 1) across the in-flight job and the queue,
  // with in-flight progress synced to `now`.
  [[nodiscard]] double outstanding_work(double now) const;

  // -- power state transitions (driven by the FleetStore) ------------------
  void start_boot(double now);
  void finish_boot(double now);
  void set_draining(double now, bool draining);
  // Allowed only when ON, draining and empty.
  void begin_shutdown(double now);
  void finish_shutdown(double now);

  // Fail-stop crash.  Allowed from any powered state (BOOTING, ON —
  // draining or not — and SHUTTING_DOWN); returns the in-flight job and
  // queue contents (in service order) so the engine can fail them over.
  [[nodiscard]] std::vector<Job> fail(double now);
  // FAILED -> OFF; the server can be booted again afterwards.
  void finish_repair(double now);

  // -- data plane -----------------------------------------------------------
  // Accepts a job (requires serving()).  Returns the completion ETA if this
  // job went straight into service (i.e. a departure must be scheduled).
  [[nodiscard]] std::optional<double> enqueue(double now, const Job& job);

  // Completes the in-flight job (requires busy()); returns the finished job
  // and, if another job started service, its completion ETA.
  struct Completion {
    Job finished;
    std::optional<double> next_eta;
  };
  [[nodiscard]] Completion complete_current(double now);

  // Changes speed to draw.speed; returns the new ETA of the in-flight job
  // if any (the store must reschedule the departure event).  `draw` is
  // this server's PowerModel::draw(speed): a fleet-wide command evaluates
  // it once for every server it reaches.
  [[nodiscard]] std::optional<double> set_speed(double now, const SpeedDraw& draw);

  // ETA of the in-flight job at the current speed.
  [[nodiscard]] double completion_eta(double now) const;

  // -- energy ---------------------------------------------------------------
  void flush_energy(double now) { meter_.flush(now); }
  [[nodiscard]] const EnergyMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] double instantaneous_power() const noexcept {
    return meter_.instantaneous_power();
  }

  // Pending event bookkeeping (owned by the FleetStore): the in-flight
  // departure, and the boot/shutdown/boot-timeout completion, so a crash
  // can cancel them.
  EventId pending_departure = kInvalidEventId;
  EventId pending_transition = kInvalidEventId;

 private:
  // Banks work done since `progress_anchor_` at the current speed.
  void sync_progress(double now);
  void start_next(double now);
  void meter_update(double now);
  // Pops the FIFO head (requires a non-empty queue).
  [[nodiscard]] Job pop_front();

  std::uint32_t index_;
  PowerState state_;
  bool draining_ = false;
  double speed_;
  std::optional<Job> current_;
  // Waiting jobs in FCFS order: queue_[head_, size) is the live FIFO.  A
  // vector with a head index rather than a deque (libstdc++ allocates one
  // per deque up front), so a server that never queues — every dark server
  // of a consolidated fleet — owns no heap block.
  // It is cleared when it drains and compacted once the consumed prefix
  // is at least 64 jobs and half the vector, so each job is moved O(1)
  // times amortized.
  std::vector<Job> queue_;
  std::size_t head_ = 0;
  double progress_anchor_ = 0.0;  // time at which current_->remaining was exact
  EnergyMeter meter_;
};

}  // namespace gc
