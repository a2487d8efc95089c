#include "power/power_model.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gc {
namespace {

TEST(PowerModel, DefaultsAreValid) {
  const PowerModel pm;
  EXPECT_DOUBLE_EQ(pm.idle_power(), 150.0);
  EXPECT_DOUBLE_EQ(pm.p_max(), 250.0);
  EXPECT_DOUBLE_EQ(pm.off_power(), 5.0);
  EXPECT_DOUBLE_EQ(pm.transition_power(), 250.0);
}

TEST(PowerModel, RejectsInconsistentParams) {
  PowerModelParams p;
  p.p_idle_watts = 300.0;  // > p_max
  EXPECT_THROW(PowerModel{p}, std::invalid_argument);
  p = {};
  p.alpha = 0.5;
  EXPECT_THROW(PowerModel{p}, std::invalid_argument);
  p = {};
  p.p_off_watts = 200.0;  // > p_idle
  EXPECT_THROW(PowerModel{p}, std::invalid_argument);
  p = {};
  p.p_idle_watts = -1.0;
  EXPECT_THROW(PowerModel{p}, std::invalid_argument);
}

TEST(PowerModel, GatedPowerAtFullLoad) {
  const PowerModel pm;  // gated, alpha 3
  EXPECT_DOUBLE_EQ(pm.power(1.0, 1.0), 250.0);
  EXPECT_DOUBLE_EQ(pm.power(1.0, 0.0), 150.0);
  EXPECT_DOUBLE_EQ(pm.power(0.5, 1.0), 150.0 + 100.0 * 0.125);
  EXPECT_DOUBLE_EQ(pm.power(0.5, 0.5), 150.0 + 100.0 * 0.125 * 0.5);
}

TEST(PowerModel, UngatedIgnoresUtilization) {
  PowerModelParams p;
  p.utilization_gated = false;
  const PowerModel pm(p);
  EXPECT_DOUBLE_EQ(pm.power(0.5, 0.0), pm.power(0.5, 1.0));
  EXPECT_DOUBLE_EQ(pm.power(1.0, 0.3), 250.0);
}

TEST(PowerModel, MonotoneInSpeedAndUtilization) {
  const PowerModel pm;
  double prev = 0.0;
  for (double s = 0.1; s <= 1.0; s += 0.1) {
    const double w = pm.power(s, 1.0);
    EXPECT_GT(w, prev);
    prev = w;
  }
  EXPECT_LE(pm.power(0.7, 0.2), pm.power(0.7, 0.8));
}

TEST(PowerModel, ClampsInputsOutOfRange) {
  const PowerModel pm;
  EXPECT_DOUBLE_EQ(pm.power(2.0, 2.0), 250.0);
  EXPECT_DOUBLE_EQ(pm.power(-1.0, -1.0), 150.0);
}

TEST(PowerModel, BusyPowerConvenience) {
  const PowerModel pm;
  EXPECT_DOUBLE_EQ(pm.busy_power(1.0), 250.0);
  EXPECT_DOUBLE_EQ(pm.busy_power(0.8), 150.0 + 100.0 * 0.512);
}

TEST(PowerModel, AlphaOneIsLinear) {
  PowerModelParams p;
  p.alpha = 1.0;
  const PowerModel pm(p);
  const double half = pm.power(0.5, 1.0) - pm.idle_power();
  const double full = pm.power(1.0, 1.0) - pm.idle_power();
  EXPECT_NEAR(half * 2.0, full, 1e-12);
}

}  // namespace
}  // namespace gc
