// A workload = an arrival process + a job-size distribution.
//
// Job sizes are expressed in *work seconds at full speed* (s = 1): a job of
// size w completes after w / s seconds on a server running at constant
// normalized speed s.  With exponential sizes of mean 1/μ_max this makes
// each server an M/M/1 queue with service rate s·μ_max, matching the
// analytic model the optimizer uses.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/arrival_process.h"
#include "workload/trace.h"

namespace gc {

struct JobArrival {
  double time = 0.0;   // seconds since simulation start
  double size = 0.0;   // work seconds at s = 1
};

class Workload {
 public:
  Workload(std::unique_ptr<ArrivalProcess> arrivals, Distribution job_size, Rng size_rng);

  // Pull the next job; nullopt when the arrival process is exhausted.
  [[nodiscard]] std::optional<JobArrival> next();

  [[nodiscard]] std::string name() const;

  // -- Factories -----------------------------------------------------------

  // Poisson(λ) arrivals, exp(μ_max) sizes: the M/M/1-per-server workload the
  // solver's model assumes.
  [[nodiscard]] static Workload poisson_exponential(double arrival_rate, double mu_max,
                                                    double horizon, std::uint64_t seed);

  // NHPP over a profile with exp(μ_max) sizes.
  [[nodiscard]] static Workload profile_exponential(
      std::shared_ptr<const RateProfile> profile, double mu_max, double horizon,
      std::uint64_t seed);

  // NHPP over a profile with an arbitrary size distribution (use
  // Distribution::with_mean(1/mu_max) to keep the offered load comparable
  // to the exponential baseline).
  [[nodiscard]] static Workload profile_sized(std::shared_ptr<const RateProfile> profile,
                                              Distribution job_size, double horizon,
                                              std::uint64_t seed);

  // Replay a trace with a given size distribution.
  [[nodiscard]] static Workload trace_replay(const Trace& trace, Distribution job_size,
                                             std::uint64_t seed);

 private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  Distribution job_size_;
  Rng size_rng_;
};

}  // namespace gc
