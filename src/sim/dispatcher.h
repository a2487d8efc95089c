// Load-balancing policies for routing arrivals to serving servers.
//
// The paper's model assumes an even split (which join-shortest-queue
// approximates closely at these utilizations); round-robin and random are
// provided for the dispatch-sensitivity ablation, least-work as the
// strongest practical policy.
//
// Two entry points share one policy core and therefore one decision
// sequence:
//
//   * pick(now, servers, serving) — the hot path.  `serving` is the
//     fleet store's list of serving() servers in ascending order
//     (sim/fleet_store.h), so round-robin and random pick in O(1) and
//     JSQ/least-work scan only the serving subset instead of all M
//     servers.
//   * pick(now, servers) — the retained reference implementation: rebuilds
//     the serving set by scanning every server, exactly as the
//     pre-index dispatcher did.  Kept as the equivalence oracle
//     (tests/test_dispatcher_equivalence.cpp) and for callers without a
//     serving list.
//
// Both produce identical pick sequences for the same (policy, rng) state
// because the list holds the same candidates in the same ascending order
// the scan would collect.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "sim/server.h"

namespace gc {

enum class DispatchPolicy : int {
  kRoundRobin = 0,
  kRandom = 1,
  kJoinShortestQueue = 2,
  kLeastWork = 3,
};
[[nodiscard]] const char* to_string(DispatchPolicy policy) noexcept;

class Dispatcher {
 public:
  Dispatcher(DispatchPolicy policy, Rng rng);

  // Hot path: picks among `serving` (indices of serving() servers in
  // ascending order).  Returns the server index, or -1 if empty.
  [[nodiscard]] long pick(double now, std::span<const Server> servers,
                          std::span<const std::uint32_t> serving);

  // Reference scan: collects the serving set from `servers` and delegates
  // to the same core.  O(M) per call.
  [[nodiscard]] long pick(double now, std::span<const Server> servers);

  [[nodiscard]] DispatchPolicy policy() const noexcept { return policy_; }

 private:
  DispatchPolicy policy_;
  Rng rng_;
  std::uint32_t rr_cursor_ = 0;
  std::vector<std::uint32_t> scratch_;  // reference-scan candidate buffer
};

}  // namespace gc
