// Energy accounting.
//
// The simulator reports *when* a server changes (state, speed, busy/idle);
// the meter integrates power over the piecewise-constant segments and keeps
// a per-category breakdown (busy / idle / transition / off) so the
// experiment tables can attribute where the joules went.
#pragma once

#include <array>
#include <cstddef>

#include "power/power_model.h"

namespace gc {

// kFailed is a fail-stop crash state (fault injection): the server serves
// nothing and draws off power (the PSU tripped / the host is fenced) until
// a repair returns it to kOff.
enum class PowerState : int { kOff = 0, kBooting = 1, kOn = 2, kShuttingDown = 3, kFailed = 4 };
[[nodiscard]] const char* to_string(PowerState state) noexcept;

class EnergyMeter {
 public:
  EnergyMeter(const PowerModel* model, double start_time);

  // Accounts the interval [last_update, now) at the *previous* operating
  // point, then records the new one.  `busy` means a job is executing.
  // The power model is consulted only when `speed` differs from the last
  // update's; busy/idle and state changes read the cached draw.
  void update(double now, PowerState state, double speed, bool busy);
  // The same with the new speed's draw precomputed (bit for bit what this
  // meter's PowerModel::draw(draw.speed) returns): no power-model call.
  void update(double now, PowerState state, const SpeedDraw& draw, bool busy);

  // Finalizes accounting up to `now` without changing the operating point.
  void flush(double now);

  [[nodiscard]] double total_joules() const noexcept;
  [[nodiscard]] double joules_busy() const noexcept { return by_class_[0]; }
  [[nodiscard]] double joules_idle() const noexcept { return by_class_[1]; }
  [[nodiscard]] double joules_transition() const noexcept { return by_class_[2]; }
  [[nodiscard]] double joules_off() const noexcept { return by_class_[3]; }

  // Inline: the fleet store re-reads it into its watts column whenever a
  // server's meter moves (sim/fleet_store.h).
  [[nodiscard]] double instantaneous_power() const noexcept {
    switch (state_) {
      case PowerState::kOff:
      case PowerState::kFailed: return model_->off_power();
      case PowerState::kBooting:
      case PowerState::kShuttingDown: return model_->transition_power();
      case PowerState::kOn: return busy_ ? busy_watts_ : idle_watts_;
    }
    return 0.0;
  }

 private:
  void integrate(double now);

  const PowerModel* model_;  // non-owning; outlives the meter
  double last_time_;
  double speed_ = 1.0;
  // An ON server's draw at speed_: PowerModel::power(speed_, 1.0 / 0.0),
  // the same bits the model returns.
  double busy_watts_ = 0.0;
  double idle_watts_ = 0.0;
  PowerState state_ = PowerState::kOff;
  bool busy_ = false;
  // busy / idle / transition / off
  std::array<double, 4> by_class_{};
};

}  // namespace gc
