// Server power model.
//
// The standard affine + polynomial law used throughout the DVFS literature
// (and by the paper's line of work):
//
//     P(s, u) = P_idle + (P_max - P_idle) * s^alpha * g(u)
//
// where s = f/f_max is the normalized speed, u in [0,1] is utilization and
// g(u) = 1 when `utilization_gated` is false ("worst-case" power: an ON
// server at speed s always burns its speed-s power) or g(u) = u when true
// (dynamic power only while actually executing).  The default is gated,
// matching what a busy/idle-accounting simulator measures; the optimizer
// supports both so the F10 ablation can compare them.
//
// Off servers draw `p_off`; a booting (resp. shutting-down) server draws
// `p_max` (full power but zero service), the standard pessimistic model of
// VOVF transition cost.
#pragma once

namespace gc {

struct PowerModelParams {
  double p_idle_watts = 150.0;  // power of an ON server at any speed, u = 0
  double p_max_watts = 250.0;   // power at s = 1, u = 1
  double alpha = 3.0;           // dynamic power exponent (cubic in f)
  double p_off_watts = 5.0;     // "off" draw (BMC, NIC wake logic)
  bool utilization_gated = true;
};

// An ON server's draw at one speed, busy and idle: what an EnergyMeter
// caches per speed.  A fleet-wide speed command computes it once and hands
// it to every server it reaches (sim/fleet_store.h).
struct SpeedDraw {
  double speed = 1.0;
  double busy_w = 0.0;  // power(speed, 1.0)
  double idle_w = 0.0;  // power(speed, 0.0)
};

class PowerModel {
 public:
  explicit PowerModel(PowerModelParams params = {});

  [[nodiscard]] const PowerModelParams& params() const noexcept { return params_; }

  // Instantaneous power of an ON server at speed s with utilization u.
  [[nodiscard]] double power(double speed, double utilization) const noexcept;

  // Expected power given average utilization (equals `power` by linearity
  // of g; provided for readability at call sites doing steady-state math).
  [[nodiscard]] double expected_power(double speed, double utilization) const noexcept {
    return power(speed, utilization);
  }

  [[nodiscard]] double busy_power(double speed) const noexcept { return power(speed, 1.0); }
  [[nodiscard]] SpeedDraw draw(double speed) const noexcept {
    return SpeedDraw{speed, power(speed, 1.0), power(speed, 0.0)};
  }
  [[nodiscard]] double idle_power() const noexcept { return params_.p_idle_watts; }
  [[nodiscard]] double off_power() const noexcept { return params_.p_off_watts; }
  // Transitioning servers (booting or shutting down) burn full power.
  [[nodiscard]] double transition_power() const noexcept { return params_.p_max_watts; }

  [[nodiscard]] double p_max() const noexcept { return params_.p_max_watts; }
  [[nodiscard]] double dynamic_range() const noexcept {
    return params_.p_max_watts - params_.p_idle_watts;
  }

 private:
  PowerModelParams params_;
};

// VOVF transition cost model: delays during which the server consumes
// transition power and serves nothing.
struct TransitionModel {
  double boot_delay_s = 90.0;       // OFF -> ON
  double shutdown_delay_s = 10.0;   // ON -> OFF (after draining)
};

}  // namespace gc
