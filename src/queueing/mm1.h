// M/M/1 closed-form results.
//
// Each active cluster server behind an even load balancer is modeled as an
// M/M/1 queue with service rate s·μ_max — the performance model underlying
// the paper's optimization (DESIGN.md §1.1).  The solver needs stability
// and the mean response time; the further closed forms the simulator
// validation compares against live in tests/support/queueing.h.
#pragma once

namespace gc {
namespace mm1 {

// ρ = λ/μ < 1.
[[nodiscard]] bool stable(double lambda, double mu) noexcept;

// Mean response (sojourn) time T = 1/(μ-λ); requires a stable queue.
[[nodiscard]] double mean_response_time(double lambda, double mu);

}  // namespace mm1
}  // namespace gc
