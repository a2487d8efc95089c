// The power-management policies evaluated by the paper plus the ablation
// and extension controllers (DESIGN.md §1.3, §3):
//
//   * NpmController            — no power management: M servers at s = 1.
//   * DvfsOnlyController       — all M servers on; frequency tracks load
//                                every short period.
//   * VovfOnlyController       — fixed s = 1; server count tracks load
//                                every long period.
//   * CombinedDcpController    — the paper's contribution: VOVF on the long
//                                period (predictive, boot-aware, with
//                                hysteresis) + DVFS on the short period.
//   * CombinedSinglePeriodController — joint (m, s) re-solve on a single
//                                period with last-value "prediction";
//                                isolates what DCP buys under transition
//                                overhead (F6).
//   * OracleController         — Combined/DCP fed the true λ(t); the
//                                clairvoyant bound on causal predictors (F9).
//   * ThresholdController      — rule-based utilization autoscaler, the
//                                practitioners' baseline (T2).
//   * PinnedController         — one fixed operating point, for checking
//                                the simulator against the solver and
//                                queueing closed forms (no PolicyKind).
#pragma once

#include <memory>

#include "core/dcp.h"
#include "core/provisioner.h"
#include "core/reliability.h"
#include "control/estimator.h"
#include "control/failure_aware.h"
#include "control/predictor.h"
#include "control/reliability_dcp.h"
#include "cp/controller.h"

namespace gc {

enum class PolicyKind : int {
  kNpm = 0,
  kDvfsOnly = 1,
  kVovfOnly = 2,
  kCombinedDcp = 3,
  kCombinedSinglePeriod = 4,
  // Clairvoyant upper bound: provisions against the *true* future arrival
  // rate (needs the ground-truth profile; see make_oracle_policy).
  kOracle = 5,
  // Rule-based threshold autoscaler (the classic reactive baseline: scale
  // out when utilization is high, in when low; no model, no solver).
  kThreshold = 6,
  // Combined/DCP hardened against fail-stop faults: failure detection,
  // capped provisioning with spare capacity, boot retries with backoff
  // (control/failure_aware.h).
  kDcpFailureAware = 7,
  // Reliability-constrained DCP: the fixed spare fraction generalized to a
  // solved spare pool meeting availability >= A_ref, with on/off wear
  // charged in the objective (control/reliability_dcp.h, DESIGN.md §10).
  kDcpReliability = 8,
};
[[nodiscard]] const char* to_string(PolicyKind kind) noexcept;

struct PolicyOptions {
  DcpParams dcp = {};
  PredictorKind predictor = PredictorKind::kSlidingMax;
  // Combined/DCP only: budget extra frequency on the short tick to drain
  // queued backlog (DcpPlanner::plan_speed_with_backlog).  Off by default
  // to match the paper's controller; quantified in bench/fig6.
  bool backlog_aware = false;
  // kDcpReliability only: MTBF/MTTR model, availability target and wear
  // budget for Provisioner::solve_reliable.  Defaults disable everything,
  // degenerating the policy to capped DCP with zero spares.
  ReliabilityOptions reliability = {};
  // Stale-telemetry guard over a degraded control channel (Combined/DCP
  // and failure-aware only): hold last-good λ̂ and widen the safety margin
  // when the delivered observation ages past the horizon.  Inert (0
  // horizon) by default.
  StalenessOptions staleness = {};
};

// Factory: builds a controller of the given kind over a provisioner that
// must outlive it.  Throws std::invalid_argument for kOracle, which needs
// the ground-truth profile — use make_oracle_policy.
[[nodiscard]] std::unique_ptr<Controller> make_policy(PolicyKind kind,
                                                      const Provisioner* provisioner,
                                                      const PolicyOptions& options = {});

class RateProfile;  // workload/rate_profile.h

// The clairvoyant policy: like Combined/DCP but with the predictor
// replaced by the true profile's peak over the prediction horizon.  It
// bounds what any causal predictor could achieve (fig9).
[[nodiscard]] std::unique_ptr<Controller> make_oracle_policy(
    const Provisioner* provisioner, const PolicyOptions& options,
    std::shared_ptr<const RateProfile> profile);

// -- Implementations ---------------------------------------------------------

class NpmController final : public Controller {
 public:
  NpmController(const Provisioner* provisioner, const PolicyOptions& options);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "npm"; }

 private:
  const Provisioner* provisioner_;
  DcpParams dcp_;
};

class DvfsOnlyController final : public Controller {
 public:
  DvfsOnlyController(const Provisioner* provisioner, const PolicyOptions& options);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "dvfs-only"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  const Provisioner* provisioner_;
  DcpParams dcp_;
  EwmaPredictor smoother_;
};

class VovfOnlyController final : public Controller {
 public:
  VovfOnlyController(const Provisioner* provisioner, const PolicyOptions& options);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "vovf-only"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  // VOVF-only must provision at s = 1, so it plans against a config whose
  // ladder is pinned to full speed.
  Provisioner full_speed_provisioner_;
  DcpPlanner planner_;
  std::unique_ptr<LoadPredictor> predictor_;
  HysteresisGate hysteresis_;
};

class CombinedDcpController final : public Controller {
 public:
  CombinedDcpController(const Provisioner* provisioner, const PolicyOptions& options);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "combined-dcp"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  const Provisioner* provisioner_;
  DcpPlanner planner_;
  std::unique_ptr<LoadPredictor> predictor_;
  HysteresisGate hysteresis_;
  bool backlog_aware_;
  StalenessGuard guard_;
};

class OracleController final : public Controller {
 public:
  OracleController(const Provisioner* provisioner, const PolicyOptions& options,
                   std::shared_ptr<const RateProfile> profile);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "oracle"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  const Provisioner* provisioner_;
  DcpPlanner planner_;
  std::shared_ptr<const RateProfile> profile_;
  HysteresisGate hysteresis_;
};

// The operations-manual autoscaler every cloud ships: no queueing model,
// just utilization thresholds.  Runs at full speed (rule-based systems
// rarely touch DVFS); scales out by one server when the measured
// per-server utilization exceeds `scale_out_util`, in by one when it
// falls below `scale_in_util`.  Serves as the "what practitioners do
// today" baseline against the paper's model-driven optimum.
class ThresholdController final : public Controller {
 public:
  ThresholdController(const Provisioner* provisioner, const PolicyOptions& options,
                      double scale_out_util = 0.8, double scale_in_util = 0.3);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "threshold"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  const Provisioner* provisioner_;
  DcpParams dcp_;
  double scale_out_util_;
  double scale_in_util_;
  EwmaPredictor smoother_;
};

// Holds one operating point (m servers at speed s) for the whole run: the
// first long tick commands it, the short tick never acts, and both periods
// (1e9 s) outlast any horizon.  What a simulation measures under it is what
// the solver or a closed form predicts for that point.
class PinnedController final : public Controller {
 public:
  PinnedController(unsigned servers, double speed) : servers_(servers), speed_(speed) {}
  [[nodiscard]] double short_period_s() const override { return 1e9; }
  [[nodiscard]] double long_period_s() const override { return 1e9; }
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "pinned"; }

 private:
  unsigned servers_;
  double speed_;
};

class CombinedSinglePeriodController final : public Controller {
 public:
  CombinedSinglePeriodController(const Provisioner* provisioner,
                                 const PolicyOptions& options);
  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "combined-single"; }

 private:
  const Provisioner* provisioner_;
  DcpParams dcp_;
  bool backlog_aware_;
};

}  // namespace gc
