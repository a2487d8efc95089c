#include "power/energy_meter.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "stats/rng.h"

namespace gc {
namespace {

class EnergyMeterTest : public ::testing::Test {
 protected:
  PowerModel pm_;  // idle 150, max 250, alpha 3, off 5, gated
};

TEST_F(EnergyMeterTest, StartsOffAndIntegratesOffPower) {
  EnergyMeter meter(&pm_, 0.0);
  meter.flush(10.0);
  EXPECT_DOUBLE_EQ(meter.joules_off(), 50.0);
  EXPECT_DOUBLE_EQ(meter.total_joules(), 50.0);
}

TEST_F(EnergyMeterTest, BusyIdleSplit) {
  EnergyMeter meter(&pm_, 0.0);
  meter.update(0.0, PowerState::kOn, 1.0, false);  // ON idle from t=0
  meter.update(4.0, PowerState::kOn, 1.0, true);   // 4 s idle
  meter.update(10.0, PowerState::kOn, 1.0, false); // 6 s busy
  meter.flush(11.0);                               // 1 s idle
  EXPECT_DOUBLE_EQ(meter.joules_idle(), 5.0 * 150.0);
  EXPECT_DOUBLE_EQ(meter.joules_busy(), 6.0 * 250.0);
}

TEST_F(EnergyMeterTest, TransitionPower) {
  EnergyMeter meter(&pm_, 0.0);
  meter.update(0.0, PowerState::kBooting, 1.0, false);
  meter.update(3.0, PowerState::kOn, 1.0, false);
  meter.update(5.0, PowerState::kShuttingDown, 1.0, false);
  meter.flush(6.0);
  EXPECT_DOUBLE_EQ(meter.joules_transition(), 4.0 * 250.0);
  EXPECT_DOUBLE_EQ(meter.joules_idle(), 2.0 * 150.0);
}

TEST_F(EnergyMeterTest, SpeedAffectsBusyPower) {
  EnergyMeter meter(&pm_, 0.0);
  meter.update(0.0, PowerState::kOn, 0.5, true);
  meter.flush(10.0);
  EXPECT_DOUBLE_EQ(meter.joules_busy(), 10.0 * (150.0 + 100.0 * 0.125));
}

TEST_F(EnergyMeterTest, InstantaneousPowerByState) {
  EnergyMeter meter(&pm_, 0.0);
  EXPECT_DOUBLE_EQ(meter.instantaneous_power(), 5.0);  // off
  meter.update(0.0, PowerState::kOn, 1.0, true);
  EXPECT_DOUBLE_EQ(meter.instantaneous_power(), 250.0);
  meter.update(1.0, PowerState::kBooting, 1.0, false);
  EXPECT_DOUBLE_EQ(meter.instantaneous_power(), 250.0);
  meter.update(2.0, PowerState::kOn, 1.0, false);
  EXPECT_DOUBLE_EQ(meter.instantaneous_power(), 150.0);
}

TEST_F(EnergyMeterTest, ZeroLengthUpdatesAddNothing) {
  EnergyMeter meter(&pm_, 5.0);
  meter.update(5.0, PowerState::kOn, 1.0, true);
  meter.update(5.0, PowerState::kOn, 0.5, true);
  EXPECT_DOUBLE_EQ(meter.total_joules(), 0.0);
}

TEST_F(EnergyMeterTest, TimeGoingBackwardsDies) {
  EnergyMeter meter(&pm_, 10.0);
  EXPECT_DEATH(meter.flush(9.0), "backwards");
}

// Reference integrator: asks the power model for every segment's draw, the
// way a meter with no cache would.  Same arithmetic order as the meter.
class ReferenceMeter {
 public:
  ReferenceMeter(const PowerModel& model, double start) : model_(model), last_(start) {}

  double power() const {
    switch (state_) {
      case PowerState::kOff:
      case PowerState::kFailed: return model_.off_power();
      case PowerState::kBooting:
      case PowerState::kShuttingDown: return model_.transition_power();
      case PowerState::kOn: return model_.power(speed_, busy_ ? 1.0 : 0.0);
    }
    return 0.0;
  }

  void update(double now, PowerState state, double speed, bool busy) {
    const double joules = (now - last_) * power();
    switch (state_) {
      case PowerState::kOn: by_class_[busy_ ? 0 : 1] += joules; break;
      case PowerState::kBooting:
      case PowerState::kShuttingDown: by_class_[2] += joules; break;
      case PowerState::kOff:
      case PowerState::kFailed: by_class_[3] += joules; break;
    }
    last_ = now;
    state_ = state;
    speed_ = speed;
    busy_ = busy;
  }

  const std::array<double, 4>& by_class() const { return by_class_; }

 private:
  const PowerModel& model_;
  double last_;
  PowerState state_ = PowerState::kOff;
  double speed_ = 1.0;
  bool busy_ = false;
  std::array<double, 4> by_class_{};
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The meter's draw and every joule counter equal, bit for bit, a reference
// that evaluates PowerModel::power on every segment — for the gated and the
// ungated model, over random state/speed/busy/dt sequences.
TEST_F(EnergyMeterTest, DrawMatchesPowerModelBitForBit) {
  PowerModelParams ungated;
  ungated.alpha = 2.7;
  ungated.utilization_gated = false;
  const std::array<PowerModel, 2> models = {pm_, PowerModel(ungated)};
  constexpr std::array<double, 5> kLadder = {0.4, 0.55, 0.7, 0.85, 1.0};
  constexpr std::array<PowerState, 5> kStates = {
      PowerState::kOff, PowerState::kBooting, PowerState::kOn,
      PowerState::kShuttingDown, PowerState::kFailed};
  for (const PowerModel& model : models) {
    Rng rng(2024);
    EnergyMeter meter(&model, 0.0);
    ReferenceMeter ref(model, 0.0);
    double now = 0.0;
    for (int i = 0; i < 100000; ++i) {
      // One step in eight has zero length (several changes at one instant);
      // ON is drawn half the time so busy/idle toggles dominate.
      if (rng.uniform_below(8) != 0) now += rng.uniform01() * 10.0;
      const PowerState state =
          rng.uniform_below(2) == 0 ? PowerState::kOn : kStates[rng.uniform_below(5)];
      const double speed = kLadder[rng.uniform_below(kLadder.size())];
      const bool busy = rng.uniform_below(2) == 0;
      meter.update(now, state, speed, busy);
      ref.update(now, state, speed, busy);
      ASSERT_EQ(bits(meter.instantaneous_power()), bits(ref.power())) << "step " << i;
      ASSERT_EQ(bits(meter.joules_busy()), bits(ref.by_class()[0])) << "step " << i;
      ASSERT_EQ(bits(meter.joules_idle()), bits(ref.by_class()[1])) << "step " << i;
      ASSERT_EQ(bits(meter.joules_transition()), bits(ref.by_class()[2])) << "step " << i;
      ASSERT_EQ(bits(meter.joules_off()), bits(ref.by_class()[3])) << "step " << i;
    }
  }
}

TEST(PowerStateNames, ToString) {
  EXPECT_STREQ(to_string(PowerState::kOff), "off");
  EXPECT_STREQ(to_string(PowerState::kBooting), "booting");
  EXPECT_STREQ(to_string(PowerState::kOn), "on");
  EXPECT_STREQ(to_string(PowerState::kShuttingDown), "shutting_down");
}

}  // namespace
}  // namespace gc
