#include "sim/server.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace gc {

// One Server per simulated machine: a 131072-server sharded fleet holds
// them all, so their size is resident memory.
static_assert(sizeof(Server) <= 216, "Server grew: check the fleet's peak RSS");

Server::Server(std::uint32_t index, const PowerModel* power, double initial_speed,
               bool initially_on, double start_time, double rate_scale)
    : index_(index),
      state_(initially_on ? PowerState::kOn : PowerState::kOff), speed_(initial_speed),
      rate_scale_(rate_scale), meter_(power, start_time) {
  GC_CHECK(power != nullptr, "Server: null power model");
  GC_CHECK(initial_speed > 0.0 && initial_speed <= 1.0, "Server: speed out of (0,1]");
  GC_CHECK(rate_scale > 0.0, "Server: rate_scale must be positive");
  meter_.update(start_time, state_, speed_, /*busy=*/false);
}

void Server::meter_update(double now) { meter_.update(now, state_, speed_, busy()); }

double Server::outstanding_work(double now) const {
  double work = 0.0;
  if (current_) {
    const double done = (now - progress_anchor_) * effective_rate();
    work += std::max(current_->remaining - done, 0.0);
  }
  for (std::size_t i = head_; i < queue_.size(); ++i) work += queue_[i].remaining;
  return work;
}

void Server::start_boot(double now) {
  GC_CHECK(state_ == PowerState::kOff, "start_boot: server not OFF");
  state_ = PowerState::kBooting;
  meter_update(now);
}

void Server::finish_boot(double now) {
  GC_CHECK(state_ == PowerState::kBooting, "finish_boot: server not BOOTING");
  state_ = PowerState::kOn;
  draining_ = false;
  meter_update(now);
}

void Server::set_draining(double now, bool draining) {
  GC_CHECK(state_ == PowerState::kOn, "set_draining: server not ON");
  if (draining_ == draining) return;
  draining_ = draining;
  meter_update(now);
}

void Server::begin_shutdown(double now) {
  GC_CHECK(state_ == PowerState::kOn && draining_ && queue_length() == 0,
           "begin_shutdown: server must be ON, draining and empty");
  state_ = PowerState::kShuttingDown;
  draining_ = false;
  meter_update(now);
}

void Server::finish_shutdown(double now) {
  GC_CHECK(state_ == PowerState::kShuttingDown, "finish_shutdown: not SHUTTING_DOWN");
  state_ = PowerState::kOff;
  meter_update(now);
}

std::vector<Job> Server::fail(double now) {
  GC_CHECK(state_ == PowerState::kBooting || state_ == PowerState::kOn ||
               state_ == PowerState::kShuttingDown,
           "fail: server must be powered to crash");
  // Bank progress up to the crash instant so re-dispatched work is not
  // redone from scratch (crash-consistent checkpointing would be the
  // optimistic model; we keep the remaining-work the job actually had).
  sync_progress(now);
  std::vector<Job> orphans;
  orphans.reserve(queue_length());
  if (current_) {
    orphans.push_back(*current_);
    current_.reset();
  }
  orphans.insert(orphans.end(), queue_.begin() + static_cast<std::ptrdiff_t>(head_),
                 queue_.end());
  queue_.clear();
  head_ = 0;
  state_ = PowerState::kFailed;
  draining_ = false;
  meter_update(now);
  return orphans;
}

void Server::finish_repair(double now) {
  GC_CHECK(state_ == PowerState::kFailed, "finish_repair: server not FAILED");
  state_ = PowerState::kOff;
  meter_update(now);
}

void Server::sync_progress(double now) {
  if (!current_) {
    progress_anchor_ = now;
    return;
  }
  const double done = (now - progress_anchor_) * effective_rate();
  current_->remaining = std::max(current_->remaining - done, 0.0);
  progress_anchor_ = now;
}

Job Server::pop_front() {
  Job job = queue_[head_++];
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return job;
}

void Server::start_next(double now) {
  GC_CHECK(!current_ && head_ < queue_.size(), "start_next: nothing to start");
  current_ = pop_front();
  current_->start_service_time = now;
  progress_anchor_ = now;
}

std::optional<double> Server::enqueue(double now, const Job& job) {
  GC_CHECK(serving(), "enqueue: server not serving");
  GC_CHECK(job.remaining > 0.0, "enqueue: job with no work");
  if (current_) {
    queue_.push_back(job);
    return std::nullopt;
  }
  GC_DCHECK(head_ == queue_.size(), "enqueue: idle server with waiting jobs");
  current_ = job;
  current_->start_service_time = now;
  progress_anchor_ = now;
  meter_update(now);  // idle -> busy
  return completion_eta(now);
}

double Server::completion_eta(double now) const {
  GC_CHECK(current_.has_value(), "completion_eta: no job in service");
  const double done = (now - progress_anchor_) * effective_rate();
  const double remaining = std::max(current_->remaining - done, 0.0);
  return now + remaining / effective_rate();
}

Server::Completion Server::complete_current(double now) {
  GC_CHECK(current_.has_value(), "complete_current: no job in service");
  sync_progress(now);
  // Floating-point wiggle: the departure event fires exactly at the ETA the
  // store computed, so remaining must be ~0 here.
  GC_DCHECK(current_->remaining <= 1e-6 * std::max(current_->size, 1.0),
            "complete_current: job finished with work left");
  Completion result{*current_, std::nullopt};
  result.finished.remaining = 0.0;
  current_.reset();
  if (head_ < queue_.size()) {
    start_next(now);
    result.next_eta = completion_eta(now);
  }
  meter_update(now);  // busy state may have changed
  return result;
}

std::optional<double> Server::set_speed(double now, double new_speed) {
  GC_CHECK(new_speed > 0.0 && new_speed <= 1.0, "set_speed: speed out of (0,1]");
  if (new_speed == speed_) return std::nullopt;
  sync_progress(now);
  speed_ = new_speed;
  meter_update(now);
  if (current_) return completion_eta(now);
  return std::nullopt;
}

}  // namespace gc
