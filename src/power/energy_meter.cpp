#include "power/energy_meter.h"

#include <bit>
#include <cstdint>

#include "util/assert.h"

namespace gc {

const char* to_string(PowerState state) noexcept {
  switch (state) {
    case PowerState::kOff: return "off";
    case PowerState::kBooting: return "booting";
    case PowerState::kOn: return "on";
    case PowerState::kShuttingDown: return "shutting_down";
    case PowerState::kFailed: return "failed";
  }
  return "?";
}

EnergyMeter::EnergyMeter(const PowerModel* model, double start_time)
    : model_(model), last_time_(start_time) {
  GC_CHECK(model != nullptr, "EnergyMeter needs a power model");
  busy_watts_ = model_->power(speed_, 1.0);
  idle_watts_ = model_->power(speed_, 0.0);
}

void EnergyMeter::integrate(double now) {
  GC_CHECK(now >= last_time_, "EnergyMeter: time went backwards");
  const double joules = (now - last_time_) * instantaneous_power();
  switch (state_) {
    case PowerState::kOn: by_class_[busy_ ? 0 : 1] += joules; break;
    case PowerState::kBooting:
    case PowerState::kShuttingDown: by_class_[2] += joules; break;
    case PowerState::kOff:
    case PowerState::kFailed: by_class_[3] += joules; break;
  }
  last_time_ = now;
}

void EnergyMeter::update(double now, PowerState state, double speed, bool busy) {
  if (speed != speed_) {
    update(now, state, model_->draw(speed), busy);
    return;
  }
  integrate(now);
  state_ = state;
  busy_ = busy;
}

void EnergyMeter::update(double now, PowerState state, const SpeedDraw& draw, bool busy) {
  GC_DCHECK(std::bit_cast<std::uint64_t>(draw.busy_w) ==
                    std::bit_cast<std::uint64_t>(model_->power(draw.speed, 1.0)) &&
                std::bit_cast<std::uint64_t>(draw.idle_w) ==
                    std::bit_cast<std::uint64_t>(model_->power(draw.speed, 0.0)),
            "EnergyMeter: precomputed draw is not this model's");
  integrate(now);
  speed_ = draw.speed;
  busy_watts_ = draw.busy_w;
  idle_watts_ = draw.idle_w;
  state_ = state;
  busy_ = busy;
}

void EnergyMeter::flush(double now) { integrate(now); }

double EnergyMeter::total_joules() const noexcept {
  return by_class_[0] + by_class_[1] + by_class_[2] + by_class_[3];
}

}  // namespace gc
