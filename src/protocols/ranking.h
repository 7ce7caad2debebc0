#pragma once

// The ranking application (§7): given n processors with distinct
// application ids, renumber them 1..n preserving order, in expected
// O(n log n log Delta) slots.
//
// Phase 1 collects every node's (application id, own DFS address) to the
// root with the collection protocol; phase 2 has the root sort the ids,
// compute each node's rank, and deliver the ranks with the downward
// subprotocol of §5.3 (the root is an ancestor of everyone, so no upward
// leg is needed). 2n - 2 messages in total.

#include <cstdint>
#include <vector>

#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/point_to_point.h"
#include "radio/trace.h"

namespace radiomc {

struct RankingOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when either phase's stall watchdog
  /// fired; kFailed when a slot budget ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime collect_slots = 0;
  SlotTime deliver_slots = 0;
  SlotTime total_slots() const noexcept { return collect_slots + deliver_slots; }
  /// rank[v] in 1..n; order-isomorphic to app_ids.
  std::vector<std::uint32_t> rank;
};

/// Runs the full ranking protocol. `app_ids[v]` is node v's application id
/// (must be distinct). Uses an already-prepared tree (setup measured
/// separately, as in §7: "not including the setup costs of Section 2").
/// `observers`: the hub and profiler get the "ranking" collect/deliver spans
/// and pass on to the inner collection (its "collection.drain" nests under
/// "ranking.collect"). The trace sink and slot hook see both stages on one
/// timeline: the collect stage's slots from 0, then the deliver stage's
/// shifted by collect_slots (ShiftedObservers).
/// `faults` / `stall_slots` mirror CollectionConfig's fields: the fault
/// plan is applied to both phases (each phase's network compiles its own
/// schedule off the phase seed) and the watchdog turns a stalled phase
/// into a RunStatus::kDegraded outcome instead of a max_slots burn.
RankingOutcome run_ranking(const Graph& g, const PreparationResult& prep,
                           const std::vector<std::uint64_t>& app_ids,
                           std::uint64_t seed,
                           SlotTime max_slots = 200'000'000,
                           const Observers& observers = {},
                           const FaultPlan& faults = {},
                           SlotTime stall_slots = 0);

}  // namespace radiomc
