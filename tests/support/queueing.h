// M/M/1 and M/M/c results only the tests use: the closed-form oracles the
// simulator-validation tests compare against.  The solver's own model
// (stability and mean response time) stays in src/queueing.
#pragma once

namespace gc {
namespace mm1 {

// ρ = λ/μ.  The rest require a stable queue (ρ < 1).
[[nodiscard]] double utilization(double lambda, double mu) noexcept;

// Mean number in system L = ρ/(1-ρ).
[[nodiscard]] double mean_number_in_system(double lambda, double mu);

// Mean waiting time W = T - 1/μ.
[[nodiscard]] double mean_waiting_time(double lambda, double mu);

// P(T > t) = exp(-(μ-λ)t): response time is exponential in M/M/1-FCFS.
[[nodiscard]] double response_time_tail(double lambda, double mu, double t);

// p-quantile of the response time.
[[nodiscard]] double response_time_quantile(double lambda, double mu, double p);

// Minimal service rate μ such that mean response time <= t_ref:
// μ = λ + 1/t_ref.
[[nodiscard]] double required_service_rate(double lambda, double t_ref);

}  // namespace mm1

namespace mmc {

// Mean number in system L = λ T.
[[nodiscard]] double mean_number_in_system(double lambda, double mu, unsigned c);

// Smallest c with mean response time <= t_ref (returns 0 if impossible
// because even c -> inf cannot beat 1/μ > t_ref).
[[nodiscard]] unsigned min_servers_for_response_time(double lambda, double mu,
                                                     double t_ref, unsigned c_max);

}  // namespace mmc
}  // namespace gc
