#include "sim/cluster.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/fault_injector.h"
#include "util/assert.h"

namespace gc {
namespace {

// The cluster's groups: `options.groups`, or the homogeneous fields as one
// group.  Validates either form.
std::vector<ServerGroupSpec> normalized_groups(const ClusterOptions& options) {
  std::vector<ServerGroupSpec> groups = options.groups;
  if (groups.empty()) {
    if (options.num_servers == 0) {
      throw std::invalid_argument("ClusterOptions: num_servers == 0");
    }
    if (options.initial_active == 0 || options.initial_active > options.num_servers) {
      throw std::invalid_argument(
          "ClusterOptions: need 1 <= initial_active <= num_servers");
    }
    ServerGroupSpec spec;
    spec.count = options.num_servers;
    spec.power = options.power;
    spec.rate_scale = 1.0;
    spec.initial_active = options.initial_active;
    spec.initial_speed = options.initial_speed;
    groups.push_back(spec);
  }
  bool any_active = false;
  for (const ServerGroupSpec& g : groups) {
    if (g.count == 0) throw std::invalid_argument("ServerGroupSpec: empty group");
    if (g.initial_active > g.count) {
      throw std::invalid_argument("ServerGroupSpec: initial_active > count");
    }
    if (!(g.initial_speed > 0.0 && g.initial_speed <= 1.0)) {
      throw std::invalid_argument("ServerGroupSpec: initial_speed out of (0,1]");
    }
    if (!(g.rate_scale > 0.0)) {
      throw std::invalid_argument("ServerGroupSpec: rate_scale must be positive");
    }
    any_active |= g.initial_active > 0;
  }
  if (!any_active) {
    throw std::invalid_argument("ClusterOptions: at least one server must start ON");
  }
  return groups;
}

std::uint32_t fleet_size(const std::vector<ServerGroupSpec>& groups) {
  std::uint32_t total = 0;
  for (const ServerGroupSpec& g : groups) total += g.count;
  return total;
}

// The speed every server starts at, or NaN if the groups differ.
double common_speed(const std::vector<ServerGroupSpec>& groups) {
  for (const ServerGroupSpec& g : groups) {
    if (g.initial_speed != groups.front().initial_speed) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  return groups.front().initial_speed;
}

EventQueue& checked(EventQueue* queue) {
  GC_CHECK(queue != nullptr, "Cluster: null event queue");
  return *queue;
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options, EventQueue* queue)
    : groups_(normalized_groups(options)),
      store_(checked(queue), options.transition, fleet_size(groups_),
             common_speed(groups_)),
      dispatcher_(options.dispatch, Rng(options.dispatch_seed, /*stream=*/3)),
      group_rng_(options.dispatch_seed, /*stream=*/5) {
  power_models_.reserve(groups_.size());
  std::uint32_t index = 0;
  for (const ServerGroupSpec& g : groups_) {
    power_models_.emplace_back(g.power);  // reserved: addresses are stable
    for (std::uint32_t i = 0; i < g.count; ++i, ++index) {
      store_.add(index, &power_models_.back(), g.initial_speed,
                 /*on=*/i < g.initial_active, g.rate_scale);
    }
  }
}

std::uint32_t Cluster::group_of(std::uint32_t server) const {
  GC_CHECK(server < num_servers(), "Cluster: server index out of range");
  std::uint32_t group = 0;
  for (std::uint32_t end = groups_[0].count; server >= end; end += groups_[group].count) {
    ++group;
  }
  return group;
}

bool Cluster::route_job_to_group(double now, std::size_t group, const Job& job) {
  GC_CHECK(group < groups_.size(), "Cluster: group index out of range");
  std::uint32_t begin = 0;
  for (std::size_t g = 0; g < group; ++g) begin += groups_[g].count;
  const std::uint32_t end = begin + groups_[group].count;
  ++store_.totals().admitted;
  // Random pick among the group's serving servers (matches the per-class
  // random-split M/M/1 model the hetero solver assumes).  The group's
  // serving set is a contiguous subrange of the ascending serving list.
  const std::span<const std::uint32_t> serving = serving_list();
  const auto lo = std::lower_bound(serving.begin(), serving.end(), begin);
  const auto hi = std::lower_bound(lo, serving.end(), end);
  const auto serving_count = static_cast<std::uint64_t>(hi - lo);
  if (serving_count == 0) {
    ++store_.totals().dropped;
    return false;
  }
  const std::uint64_t pick = group_rng_.uniform_below(serving_count);
  store_.enqueue(now, *(lo + static_cast<std::ptrdiff_t>(pick)), job);
  return true;
}

const Server& Cluster::server(std::uint32_t index) const {
  GC_CHECK(index < num_servers(), "Cluster: server index out of range");
  return store_.server(index);
}

void Cluster::boot(double now, std::uint32_t server) {
  // With fault injection, this individual boot may hang: instead of a
  // completion it gets a watchdog timeout that fails the server.
  const std::optional<double> hang =
      faults_ ? faults_->sample_boot_hang(store_.boot_delay_s())
              : std::nullopt;
  store_.boot(now, server, hang);
  trace_async_begin(trace_, now, "lifecycle", "boot", server);
}

void Cluster::drain(double now, std::uint32_t server) {
  if (store_.drain(now, server)) {
    trace_async_begin(trace_, now, "lifecycle", "shutdown", server);
  }
}

void Cluster::set_active_target(double now, unsigned target) {
  target = std::clamp(target, 1u, num_servers());
  unsigned committed = committed_count();
  if (target > committed) {
    // 1) Revive draining servers — they are still hot.
    for (std::uint32_t i = 0; i < num_servers() && committed < target; ++i) {
      const Server& s = store_.server(i);
      if (s.state() == PowerState::kOn && s.draining()) {
        store_.revive(now, i);
        ++committed;
      }
    }
    // 2) Boot OFF servers.
    for (std::uint32_t i = 0; i < num_servers() && committed < target; ++i) {
      if (store_.server(i).state() == PowerState::kOff) {
        boot(now, i);
        ++committed;
      }
    }
    // If we ran out of OFF servers the remainder are SHUTTING_DOWN; they
    // will be re-booted by a later decision once OFF.  Nothing to do.
    return;
  }

  // Drain serving servers with the least outstanding work first (ties go
  // to the lowest index), but never the last serving server: booting
  // capacity cannot take traffic yet, and a cluster with zero serving
  // servers drops jobs.
  for (unsigned excess = committed - target; excess > 0 && serving_count() > 1;
       --excess) {
    std::uint32_t victim = 0;
    double least_work = std::numeric_limits<double>::infinity();
    store_.serving().for_each([&](std::size_t i) {
      const auto li = static_cast<std::uint32_t>(i);
      const double work = store_.server(li).outstanding_work(now);
      if (work < least_work) {
        least_work = work;
        victim = li;
      }
    });
    drain(now, victim);
  }
}

bool Cluster::dispatch(double now, const Job& job) {
  const long target = dispatcher_.pick(now, store_.servers(), serving_list());
  if (target < 0) return false;
  store_.enqueue(now, static_cast<std::uint32_t>(target), job);
  return true;
}

bool Cluster::route_job(double now, const Job& job) {
  ++store_.totals().admitted;
  if (dispatch(now, job)) return true;
  ++store_.totals().dropped;
  return false;
}

Job Cluster::handle_departure(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "departure for unknown server");
  const Job finished = store_.depart(now, server);
  // A departure that emptied a draining server began its shutdown.
  if (store_.server(server).state() == PowerState::kShuttingDown) {
    trace_async_begin(trace_, now, "lifecycle", "shutdown", server);
  }
  return finished;
}

void Cluster::handle_boot_complete(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "boot completion for unknown server");
  store_.finish_boot(now, server);
  trace_async_end(trace_, now, "lifecycle", "boot", server);
}

void Cluster::handle_shutdown_complete(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "shutdown completion for unknown server");
  store_.finish_shutdown(now, server);
  trace_async_end(trace_, now, "lifecycle", "shutdown", server);
}

bool Cluster::fail_server(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "fail_server: unknown server");
  const PowerState state = store_.server(server).state();
  if (state == PowerState::kOff || state == PowerState::kFailed) return false;
  // Close the interrupted transition's lane before opening the failed one.
  if (state == PowerState::kBooting) {
    trace_async_end(trace_, now, "lifecycle", "boot", server);
  } else if (state == PowerState::kShuttingDown) {
    trace_async_end(trace_, now, "lifecycle", "shutdown", server);
  }
  std::vector<Job> orphans = store_.fail(now, server);
  trace_async_begin(trace_, now, "lifecycle", "failed", server);
  // Fail the orphans over to surviving serving servers; with none left the
  // jobs are lost (distinct from admission-time drops).
  for (Job& job : orphans) {
    // A job can be caught exactly at its completion instant (crash and
    // departure tie on time); give it a vanishing sliver of work so the
    // enqueue invariant (remaining > 0) holds and it finishes immediately
    // on the failover server.
    job.remaining = std::max(job.remaining, 1e-12);
    if (dispatch(now, job)) {
      ++store_.totals().redispatched;
    } else {
      ++store_.totals().lost;
    }
  }
  return true;
}

void Cluster::timeout_boot(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "timeout_boot: unknown server");
  trace_async_end(trace_, now, "lifecycle", "boot", server);
  store_.time_out_boot(now, server);
  trace_async_begin(trace_, now, "lifecycle", "failed", server);
}

void Cluster::repair_server(double now, std::uint32_t server) {
  GC_CHECK(server < num_servers(), "repair_server: unknown server");
  store_.finish_repair(now, server);
  trace_async_end(trace_, now, "lifecycle", "failed", server);
}

}  // namespace gc
