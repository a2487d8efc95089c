#include "sim/dispatcher.h"

#include <limits>

#include "util/assert.h"

namespace gc {

const char* to_string(DispatchPolicy policy) noexcept {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kRandom: return "random";
    case DispatchPolicy::kJoinShortestQueue: return "jsq";
    case DispatchPolicy::kLeastWork: return "least-work";
  }
  return "?";
}

Dispatcher::Dispatcher(DispatchPolicy policy, Rng rng) : policy_(policy), rng_(rng) {}

long Dispatcher::pick(double now, std::span<const Server> servers,
                      std::span<const std::uint32_t> serving) {
  if (serving.empty()) return -1;

  switch (policy_) {
    case DispatchPolicy::kRoundRobin: {
      const std::uint32_t chosen = serving[rr_cursor_ % serving.size()];
      ++rr_cursor_;
      return static_cast<long>(chosen);
    }
    case DispatchPolicy::kRandom: {
      return static_cast<long>(serving[rng_.uniform_below(serving.size())]);
    }
    case DispatchPolicy::kJoinShortestQueue: {
      std::uint32_t best = serving.front();
      std::size_t best_len = std::numeric_limits<std::size_t>::max();
      for (const std::uint32_t idx : serving) {
        const std::size_t len = servers[idx].queue_length();
        if (len < best_len) {
          best_len = len;
          best = idx;
        }
      }
      return static_cast<long>(best);
    }
    case DispatchPolicy::kLeastWork: {
      std::uint32_t best = serving.front();
      double best_work = std::numeric_limits<double>::infinity();
      for (const std::uint32_t idx : serving) {
        const double work = servers[idx].outstanding_work(now);
        if (work < best_work) {
          best_work = work;
          best = idx;
        }
      }
      return static_cast<long>(best);
    }
  }
  GC_CHECK(false, "unreachable dispatch policy");
  return -1;
}

long Dispatcher::pick(double now, std::span<const Server> servers) {
  // Reference scan: collect the serving candidates in ascending order —
  // exactly the set (and order) the fleet store's serving list holds.
  scratch_.clear();
  scratch_.reserve(servers.size());
  for (const Server& s : servers) {
    if (s.serving()) scratch_.push_back(s.index());
  }
  return pick(now, servers, scratch_);
}

}  // namespace gc
