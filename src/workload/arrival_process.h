// Arrival processes: streams of job arrival times.
//
// All processes implement a pull interface (`next()` returns the next
// arrival time after the previous one, or nullopt past the horizon), which
// is what an event-driven simulator wants: it schedules exactly one
// pending-arrival event at a time.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "workload/rate_profile.h"

namespace gc {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Next arrival time (strictly nondecreasing across calls), or nullopt
  // when the process is exhausted / past its horizon.
  [[nodiscard]] virtual std::optional<double> next() = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

// Homogeneous Poisson process with rate λ, truncated at `horizon`.
class PoissonProcess final : public ArrivalProcess {
 public:
  PoissonProcess(double rate, double horizon, Rng rng);
  [[nodiscard]] std::optional<double> next() override;
  [[nodiscard]] std::string name() const override;

 private:
  double rate_, horizon_;
  Rng rng_;
  double t_ = 0.0;
};

// Non-homogeneous Poisson process over a RateProfile, generated by Lewis &
// Shedler thinning against a per-window majorant.  Time is cut into
// windows [k·w, (k+1)·w) clipped at the horizon; the majorant of a window
// is one max_rate() call, made when the process first enters the window
// and kept until it leaves it.  Each candidate then costs one rate() call.
class NhppProcess final : public ArrivalProcess {
 public:
  // `majorant_window_s` is the window width w: smaller windows mean
  // tighter bounds (fewer rejected candidates) at more max_rate() calls.
  NhppProcess(std::shared_ptr<const RateProfile> profile, double horizon, Rng rng,
              double majorant_window_s = 600.0);
  [[nodiscard]] std::optional<double> next() override;
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<const RateProfile> profile_;
  double horizon_;
  Rng rng_;
  double window_;
  double t_ = 0.0;
  // Start of the window `majorant_` belongs to; NaN (matches no window)
  // before the first window.
  double majorant_start_ = std::numeric_limits<double>::quiet_NaN();
  double majorant_ = 0.0;
};

// Replays an explicit list of timestamps (a recorded trace).
class TraceProcess final : public ArrivalProcess {
 public:
  // Timestamps must be nondecreasing and nonnegative.
  explicit TraceProcess(std::vector<double> timestamps);
  [[nodiscard]] std::optional<double> next() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t size() const noexcept { return timestamps_.size(); }

 private:
  std::vector<double> timestamps_;
  std::size_t pos_ = 0;
};

}  // namespace gc
