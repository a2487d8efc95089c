#include "workload/arrival_process.h"

#include <cmath>
#include "util/format.h"
#include <stdexcept>

#include "util/assert.h"

namespace gc {

PoissonProcess::PoissonProcess(double rate, double horizon, Rng rng)
    : rate_(rate), horizon_(horizon), rng_(rng) {
  if (!(rate > 0.0 && horizon > 0.0)) {
    throw std::invalid_argument("PoissonProcess: need rate>0, horizon>0");
  }
}

std::optional<double> PoissonProcess::next() {
  t_ += -std::log(rng_.uniform01_open_left()) / rate_;
  if (t_ > horizon_) return std::nullopt;
  return t_;
}

std::string PoissonProcess::name() const { return gc::format("poisson({:g}/s)", rate_); }

NhppProcess::NhppProcess(std::shared_ptr<const RateProfile> profile, double horizon,
                         Rng rng, double majorant_window_s)
    : profile_(std::move(profile)), horizon_(horizon), rng_(rng),
      window_(majorant_window_s) {
  GC_CHECK(profile_ != nullptr, "NhppProcess: null profile");
  if (!(horizon > 0.0 && majorant_window_s > 0.0)) {
    throw std::invalid_argument("NhppProcess: need horizon>0, window>0");
  }
}

std::optional<double> NhppProcess::next() {
  // Thinning: propose candidates at the windowed majorant rate, accept
  // with probability λ(t)/majorant.  Windows with zero majorant are skipped.
  // The profile is immutable, so a window's majorant is evaluated once.
  while (t_ < horizon_) {
    double window_start = std::floor(t_ / window_) * window_;
    // With a width that is no exact binary fraction (0.1 s, say), floor()
    // can put a window's end back into that window; without this step the
    // process would never leave it.
    if (window_start + window_ <= t_) window_start += window_;
    const double window_end = std::min(window_start + window_, horizon_);
    if (window_start != majorant_start_) {
      majorant_start_ = window_start;
      majorant_ = profile_->max_rate(window_start, window_end);
    }
    const double majorant = majorant_;
    if (!(majorant > 0.0)) {
      t_ = window_end;
      continue;
    }
    const double gap = -std::log(rng_.uniform01_open_left()) / majorant;
    const double candidate = t_ + gap;
    if (candidate >= window_end) {
      // No accepted point in this window; restart at its edge with fresh
      // exponential (memorylessness makes this exact).
      t_ = window_end;
      continue;
    }
    t_ = candidate;
    const double lambda = profile_->rate(candidate);
    GC_DCHECK(lambda <= majorant * (1.0 + 1e-9), "profile broke its own majorant");
    if (rng_.uniform01() * majorant < lambda) return candidate;
  }
  return std::nullopt;
}

std::string NhppProcess::name() const { return gc::format("nhpp[{}]", profile_->name()); }

TraceProcess::TraceProcess(std::vector<double> timestamps)
    : timestamps_(std::move(timestamps)) {
  for (std::size_t i = 0; i < timestamps_.size(); ++i) {
    const bool ok = timestamps_[i] >= 0.0 &&
                    (i == 0 || timestamps_[i] >= timestamps_[i - 1]);
    if (!ok) throw std::invalid_argument("TraceProcess: timestamps must be nondecreasing");
  }
}

std::optional<double> TraceProcess::next() {
  if (pos_ >= timestamps_.size()) return std::nullopt;
  return timestamps_[pos_++];
}

std::string TraceProcess::name() const {
  return gc::format("trace({} arrivals)", timestamps_.size());
}

}  // namespace gc
