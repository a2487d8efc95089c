#include "workload/workload.h"

#include "util/format.h"

#include "util/assert.h"

namespace gc {

Workload::Workload(std::unique_ptr<ArrivalProcess> arrivals, Distribution job_size,
                   Rng size_rng)
    : arrivals_(std::move(arrivals)), job_size_(std::move(job_size)), size_rng_(size_rng) {
  GC_CHECK(arrivals_ != nullptr, "Workload: null arrival process");
}

std::optional<JobArrival> Workload::next() {
  const auto t = arrivals_->next();
  if (!t) return std::nullopt;
  return JobArrival{*t, job_size_.sample(size_rng_)};
}

std::string Workload::name() const {
  return gc::format("{} x {}", arrivals_->name(), job_size_.name());
}

Workload Workload::poisson_exponential(double arrival_rate, double mu_max, double horizon,
                                       std::uint64_t seed) {
  return Workload(
      std::make_unique<PoissonProcess>(arrival_rate, horizon, Rng(seed, 1)),
      Distribution::exponential(mu_max), Rng(seed, 2));
}

Workload Workload::profile_exponential(std::shared_ptr<const RateProfile> profile,
                                       double mu_max, double horizon, std::uint64_t seed) {
  return Workload(
      std::make_unique<NhppProcess>(std::move(profile), horizon, Rng(seed, 1)),
      Distribution::exponential(mu_max), Rng(seed, 2));
}

Workload Workload::profile_sized(std::shared_ptr<const RateProfile> profile,
                                 Distribution job_size, double horizon,
                                 std::uint64_t seed) {
  return Workload(std::make_unique<NhppProcess>(std::move(profile), horizon, Rng(seed, 1)),
                  std::move(job_size), Rng(seed, 2));
}

Workload Workload::trace_replay(const Trace& trace, Distribution job_size,
                                std::uint64_t seed) {
  return Workload(std::make_unique<TraceProcess>(trace.timestamps()), std::move(job_size),
                  Rng(seed, 2));
}

}  // namespace gc
