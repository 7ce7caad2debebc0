#pragma once

// Leader election for the setup phase (§2 / [4]).
//
// We elect the maximum id by epidemic max-flooding: every node keeps the
// best candidate id it has heard; per phase it runs one Decay invocation
// advertising its best while the value is "fresh" (recently improved), plus
// a periodic heartbeat so that an unlucky neighborhood is always retried.
// A node whose best is its own id after the budget considers itself leader.
//
// This is deliberately simpler than [4]'s O(log log n (D + log n/eps)
// log Delta) tournament; the paper's own §2 transformation (verify by
// collection, restart with a doubled budget on failure) wraps it so the
// overall setup *always* succeeds and only the running time is random. The
// simplification affects only the setup constant, not any reproduced
// claim — see DESIGN.md "Substitutions".

#include <cstdint>
#include <optional>
#include <vector>

#include "protocols/decay.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

struct LeaderConfig {
  std::uint32_t decay_len = 2;
  /// Phases a node keeps advertising after its best improved.
  std::uint32_t fresh_phases = 4;
  /// A node advertises every heartbeat-th phase (desynchronized by id)
  /// regardless of freshness, so an unlucky neighborhood is always retried.
  std::uint32_t heartbeat = 8;
  /// §8 Remark 2 ("if there are no IDs then the processors can randomly
  /// choose sufficiently long IDs"): when nonzero, each node campaigns
  /// with a fresh random value of this many bits instead of its id. A
  /// collision of the maximum draw leaves several self-believed leaders —
  /// which the §2 setup verification detects, triggering a redraw. 0 (the
  /// default) uses the model's distinct ids.
  std::uint32_t random_id_bits = 0;
};

class MaxFloodStation final : public SubStation {
 public:
  MaxFloodStation(NodeId me, LeaderConfig cfg, Rng rng);

  /// Keeps the Waker: the station is polled only in phases where it
  /// advertises (fresh or heartbeat) while its Decay is live; it arms the
  /// start of its next such phase and wakes when a better value arrives.
  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// The best campaign value heard so far (== the node id in id mode).
  std::uint64_t best() const noexcept { return best_; }
  bool believes_leader() const noexcept { return best_ == own_value_; }
  /// Restores the initial state; in random-id mode this redraws the
  /// campaign value (used between setup attempts).
  void reset();

 private:
  std::uint64_t draw_value();
  /// True iff the node advertises in `phase` (fresh or its heartbeat).
  bool advertises(std::uint64_t phase) const noexcept;
  /// The first phase after `phase` in which the node advertises.
  std::uint64_t next_advertising(std::uint64_t phase) const noexcept;

  NodeId me_;
  LeaderConfig cfg_;
  Rng rng_;
  std::uint64_t own_value_;
  std::uint64_t best_;
  std::uint64_t fresh_until_ = 0;  ///< advertise through this phase
  DecayProcess decay_;
  Waker* waker_ = nullptr;
};

/// Standalone driver: runs max-flooding for `phases` phases and returns
/// each node's final best. The election *succeeded* iff every entry equals
/// the maximum id.
struct LeaderOutcome {
  SlotTime slots = 0;
  std::vector<std::uint64_t> best;
  bool unanimous = false;
};
LeaderOutcome run_leader_election(const Graph& g, std::uint64_t phases,
                                  std::uint64_t seed);

}  // namespace radiomc
