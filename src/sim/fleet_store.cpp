#include "sim/fleet_store.h"

#include "obs/counters.h"
#include "sim/metrics.h"
#include "util/assert.h"

namespace gc {

FleetTotals& FleetTotals::operator+=(const FleetTotals& other) noexcept {
  admitted += other.admitted;
  shed += other.shed;
  completed += other.completed;
  dropped += other.dropped;
  redispatched += other.redispatched;
  lost += other.lost;
  boots += other.boots;
  shutdowns += other.shutdowns;
  failures += other.failures;
  repairs += other.repairs;
  boot_timeouts += other.boot_timeouts;
  return *this;
}

void report_fleet_totals(const FleetTotals& whole, const FleetTotals& warm,
                         SimResult& result, MetricRegistry& registry) {
  result.dropped_jobs = whole.dropped - warm.dropped;
  result.shed_jobs = whole.shed - warm.shed;
  result.failures = whole.failures - warm.failures;
  result.repairs = whole.repairs - warm.repairs;
  result.boot_timeouts = whole.boot_timeouts - warm.boot_timeouts;
  result.jobs_redispatched = whole.redispatched - warm.redispatched;
  result.jobs_lost = whole.lost - warm.lost;
  result.boots = whole.boots - warm.boots;
  result.shutdowns = whole.shutdowns - warm.shutdowns;
  const std::uint64_t offered = (whole.admitted - warm.admitted) + result.shed_jobs;
  result.shed_ratio =
      offered > 0 ? static_cast<double>(result.shed_jobs) / static_cast<double>(offered)
                  : 0.0;

  registry.counter("sim.jobs.admitted").inc(whole.admitted);
  registry.counter("sim.jobs.shed").inc(whole.shed);
  registry.counter("sim.jobs.completed").inc(whole.completed);
  registry.counter("sim.jobs.dropped").inc(whole.dropped);
  registry.counter("sim.jobs.redispatched").inc(whole.redispatched);
  registry.counter("sim.jobs.lost").inc(whole.lost);
  registry.counter("cluster.boots").inc(whole.boots);
  registry.counter("cluster.shutdowns").inc(whole.shutdowns);
  registry.counter("cluster.failures").inc(whole.failures);
  registry.counter("cluster.repairs").inc(whole.repairs);
  registry.counter("cluster.boot_timeouts").inc(whole.boot_timeouts);
}

FleetStore::FleetStore(EventQueue& queue, const TransitionModel& transition,
                       std::uint32_t size, double speed)
    : queue_(queue), transition_(transition), speed_(speed) {
  servers_.reserve(size);
  watts_.reserve(size);
  serving_.assign(size);
  live_.assign(size);
  speed_seen_.assign(size, 0);
  server_boots_.assign(size, 0);
  server_shutdowns_.assign(size, 0);
}

void FleetStore::add(std::uint32_t index, const PowerModel* power, double speed, bool on,
                     double rate_scale) {
  GC_CHECK(servers_.size() < speed_seen_.size(), "FleetStore: more servers than sized");
  const auto li = size();
  servers_.emplace_back(index, power, speed, on, /*start_time=*/0.0, rate_scale);
  watts_.push_back(servers_.back().instantaneous_power());
  if (on) {
    serving_.insert(li);
    live_.insert(li);
    ++powered_;
  }
}

template <typename Fn>
void FleetStore::transition(std::uint32_t li, Fn&& mutate) {
  Server& s = servers_[li];
  const bool was_live = live_.contains(li);
  if (!was_live) catch_up_speed(li);
  const PowerState before = s.state();
  const bool was_serving = s.serving();
  mutate(s);
  const PowerState after = s.state();
  if (before != after) {
    const bool was_powered = before != PowerState::kOff;
    const bool is_powered = after != PowerState::kOff;
    if (was_powered != is_powered) is_powered ? ++powered_ : --powered_;
    const bool was_booting = before == PowerState::kBooting;
    const bool is_booting = after == PowerState::kBooting;
    if (was_booting != is_booting) is_booting ? ++booting_ : --booting_;
    const bool was_failed = before == PowerState::kFailed;
    const bool is_failed = after == PowerState::kFailed;
    if (was_failed != is_failed) is_failed ? ++failed_ : --failed_;
  }
  const bool is_serving = s.serving();
  if (was_serving != is_serving) {
    is_serving ? serving_.insert(li) : serving_.erase(li);
    serving_list_stale_ = true;
  }
  const bool is_live = after != PowerState::kOff && after != PowerState::kFailed;
  if (was_live != is_live) {
    if (is_live) {
      live_.insert(li);
    } else {
      live_.erase(li);
      speed_seen_[li] = static_cast<std::uint32_t>(speed_log_.size());
    }
  }
  watts_[li] = s.instantaneous_power();
}

void FleetStore::catch_up_speed(std::uint32_t li) {
  // A dark server has no job in service, so no departure moves.
  Server& s = servers_[li];
  for (std::size_t i = speed_seen_[li]; i < speed_log_.size(); ++i) {
    [[maybe_unused]] const auto eta = s.set_speed(speed_log_[i].time, speed_log_[i].speed);
    GC_DCHECK(!eta, "FleetStore: dark server had a job in service");
  }
  speed_seen_[li] = static_cast<std::uint32_t>(speed_log_.size());
}

void FleetStore::rebuild_serving_list() {
  serving_list_.clear();
  serving_.for_each(
      [&](std::size_t li) { serving_list_.push_back(static_cast<std::uint32_t>(li)); });
  serving_list_stale_ = false;
}

double FleetStore::power_w() const {
  double watts_sum = 0.0;
  for (std::uint32_t li = 0; li < size(); ++li) watts_sum += watts(li);
  return watts_sum;
}

void FleetStore::boot(double now, std::uint32_t li, std::optional<double> hang_s) {
  transition(li, [&](Server& s) { s.start_boot(now); });
  ++totals_.boots;
  ++server_boots_[li];
  servers_[li].pending_transition =
      hang_s ? queue_.schedule(now + *hang_s, EventType::kBootTimeout, li)
             : queue_.schedule(now + transition_.boot_delay_s, EventType::kBootComplete,
                               li);
}

void FleetStore::finish_boot(double now, std::uint32_t li) {
  servers_[li].pending_transition = kInvalidEventId;
  transition(li, [&](Server& s) { s.finish_boot(now); });
}

void FleetStore::revive(double now, std::uint32_t li) {
  transition(li, [&](Server& s) { s.set_draining(now, false); });
}

bool FleetStore::drain(double now, std::uint32_t li) {
  transition(li, [&](Server& s) { s.set_draining(now, true); });
  return maybe_begin_shutdown(now, li);
}

bool FleetStore::maybe_begin_shutdown(double now, std::uint32_t li) {
  Server& s = servers_[li];
  if (s.state() != PowerState::kOn || !s.draining() || s.queue_length() != 0) {
    return false;
  }
  transition(li, [&](Server& sv) { sv.begin_shutdown(now); });
  ++totals_.shutdowns;
  ++server_shutdowns_[li];
  s.pending_transition = queue_.schedule(now + transition_.shutdown_delay_s,
                                         EventType::kShutdownComplete, li);
  return true;
}

void FleetStore::finish_shutdown(double now, std::uint32_t li) {
  servers_[li].pending_transition = kInvalidEventId;
  transition(li, [&](Server& s) { s.finish_shutdown(now); });
}

std::vector<Job> FleetStore::fail(double now, std::uint32_t li) {
  // A crashed server's scheduled future is void.
  Server& s = servers_[li];
  queue_.cancel(s.pending_departure);
  s.pending_departure = kInvalidEventId;
  queue_.cancel(s.pending_transition);
  s.pending_transition = kInvalidEventId;
  std::vector<Job> orphans;
  transition(li, [&](Server& sv) { orphans = sv.fail(now); });
  GC_CHECK(jobs_ >= orphans.size(), "FleetStore: crash orphaned untracked jobs");
  jobs_ -= orphans.size();
  ++totals_.failures;
  return orphans;
}

void FleetStore::time_out_boot(double now, std::uint32_t li) {
  GC_CHECK(servers_[li].state() == PowerState::kBooting,
           "time_out_boot: server not BOOTING");
  servers_[li].pending_transition = kInvalidEventId;  // the timeout that fired
  GC_CHECK(fail(now, li).empty(), "time_out_boot: booting server held jobs");
  ++totals_.boot_timeouts;
}

void FleetStore::finish_repair(double now, std::uint32_t li) {
  transition(li, [&](Server& s) { s.finish_repair(now); });
  ++totals_.repairs;
}

void FleetStore::set_speed_all(double now, double speed) {
  GC_CHECK(speed > 0.0 && speed <= 1.0, "set_speed_all: speed out of (0,1]");
  // Every server already runs at the commanded speed (a dark one once
  // caught up), so repeating it is a no-op.
  if (speed == speed_) return;
  speed_ = speed;
  speed_log_.push_back(SpeedCommand{now, speed});
  live_.for_each([&](std::size_t i) {
    const auto li = static_cast<std::uint32_t>(i);
    const auto eta = servers_[li].set_speed(now, speed);
    watts_[li] = servers_[li].instantaneous_power();
    if (eta) reschedule_departure(li, *eta);
  });
}

void FleetStore::flush_energy(double now, std::uint32_t li) {
  if (!live_.contains(li)) catch_up_speed(li);
  servers_[li].flush_energy(now);
}

void FleetStore::flush_energy(double now) {
  for (std::uint32_t li = 0; li < size(); ++li) flush_energy(now, li);
}

EnergyBreakdown FleetStore::energy() const {
  EnergyBreakdown sum;
  for (const Server& s : servers_) {
    sum.busy_j += s.meter().joules_busy();
    sum.idle_j += s.meter().joules_idle();
    sum.transition_j += s.meter().joules_transition();
    sum.off_j += s.meter().joules_off();
  }
  return sum;
}

}  // namespace gc
