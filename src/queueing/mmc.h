// M/M/c (Erlang-C) closed-form results.
//
// Used (a) as an alternative, less conservative performance model for the
// solver (a cluster with join-shortest-queue dispatch behaves between
// M/M/1-per-server and M/M/c), and (b) as the oracle for validating the
// simulator's central-queue mode (with tests/support/queueing.h).
#pragma once

namespace gc {
namespace mmc {

// Offered load a = λ/μ; stability requires a < c.
[[nodiscard]] bool stable(double lambda, double mu, unsigned c) noexcept;

// Erlang-C: probability an arriving job must wait.
[[nodiscard]] double erlang_c(double lambda, double mu, unsigned c);

// Mean waiting time Wq = C(c,a) / (cμ - λ).
[[nodiscard]] double mean_waiting_time(double lambda, double mu, unsigned c);

// Mean response time T = Wq + 1/μ.
[[nodiscard]] double mean_response_time(double lambda, double mu, unsigned c);

}  // namespace mmc
}  // namespace gc
