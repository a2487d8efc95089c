// Reliability-constrained DCP: the failure-aware controller with the spare
// heuristic replaced by a solved spare pool and a wear-costed objective
// (DESIGN.md §10).
//
// FailureAwareDcpController adds ceil(kSpareCapacityFraction * m) standby
// servers no matter what the failure regime looks like — one fixed
// fraction, with availability only an emergent side effect.  This
// controller instead hands Provisioner::solve_reliable the MTBF/MTTR model
// and an availability target A_ref, and the solver returns the jointly
// optimal (m, s, spares):
//
//   minimize   power(m + spares, s) + wear_cost(|m + spares − committed|)
//   subject to E[T](m, s) <= t_ref          (base fleet alone)
//              A(m, spares) >= A_ref        (closed-form binomial tail)
//              m + spares <= detected fleet
//
// The wear term makes cycling cost lifetime, not just transition energy:
// shrinking the pool for a marginal power saving is vetoed whenever the
// saving over one long period is smaller than the amortized cycle cost, so
// the wear-aware policy holds its fleet steady where naive DCP breathes
// with every load wiggle (bench/fig16_reliability quantifies the cut).
//
// Detector and boot-retry machinery are reused verbatim from
// control/failure_aware.h; kSpareCapacityFraction does not apply — spares
// are solved, not guessed.  Policies.cpp wires this up as
// PolicyKind::kDcpReliability.
#pragma once

#include <memory>

#include "core/dcp.h"
#include "core/provisioner.h"
#include "core/reliability.h"
#include "control/estimator.h"
#include "control/failure_aware.h"
#include "control/predictor.h"
#include "cp/controller.h"

namespace gc {

class ReliabilityDcpController final : public Controller {
 public:
  // Validates `reliability` (throws std::invalid_argument).
  ReliabilityDcpController(const Provisioner* provisioner, const DcpParams& dcp,
                           PredictorKind predictor,
                           const ReliabilityOptions& reliability,
                           const StalenessOptions& staleness = {});

  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] ControlAction on_short_tick(const ControlContext& ctx) override;
  [[nodiscard]] ControlAction on_long_tick(const ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override { return "dcp-reliability"; }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  [[nodiscard]] static const ReliabilityOptions& validated(
      const ReliabilityOptions& options) {
    options.validate();
    return options;
  }

  const Provisioner* provisioner_;
  DcpPlanner planner_;
  std::unique_ptr<LoadPredictor> predictor_;
  HysteresisGate hysteresis_;
  ReliabilityOptions reliability_;
  FailureDetector detector_;
  BootRetryGate retry_;
  StalenessGuard guard_;
  // Last long-period plan: the short tick fits speed to the base fleet
  // (spares stay pure headroom) and re-reports the plan's availability /
  // binding constraint so every audit record explains itself.
  unsigned planned_base_ = 0;
  ReliablePlan last_plan_;
};

}  // namespace gc
