#pragma once

// Point-to-point transmission (§5).
//
// After the preparation step (dfs_numbering.h), every node is addressed by
// its DFS number, and each node knows its own DFS interval [number,
// max_desc] and its children's intervals. A message for address `a` first
// climbs the BFS tree (the upward subprotocol, §5.2 — identical to
// collection) until it reaches the first ancestor whose interval contains
// `a`, then descends (the downward subprotocol, §5.3): each hop the holder
// sends it down, and a receiver processes it only if `a` lies in its own
// subtree — which, by disjointness of sibling subtrees, identifies the
// unique next hop. Both directions are the §3 hop core (acked_hop.h) that
// collection also runs: Decay per phase, the deterministic acknowledgements
// of §3, and the mod-3 level gating of §2.2. Each half adds only which
// receptions it accepts (from its children going up; from its parent and
// for its subtree going down), where they go (the LCA turn, or the final
// delivery) and whether it may send (up: only with a parent). The two
// directions run concurrently on separate channels (§1.4), under a
// ChannelMuxStation: a node sleeps (radio/waker.h) until the next slot in
// which either half may send or owes an ack, and a reception wakes it
// only when it accepts the message. Both halves keep the Waker
// promise and re-arm their shared timer at the end of every polled slot,
// so the joint one holds.
//
// As in the paper, destinations are DFS addresses ("Henceforth, each node
// uses its DFS number as its address"); the id->address directory is held
// by the root and is what the ranking application (§7) distributes.

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "protocols/acked_hop.h"
#include "protocols/dfs_numbering.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {

/// The observers (radio/trace.h) serve run_point_to_point: one run span for
/// the hub and the profiler ("point_to_point.run"), request counts and a
/// delivery-latency histogram in the hub, request/slot profiler counters.
struct P2pConfig : Observers {
  SlotStructure slots;  ///< ack + mod-3 on by default

  /// Fault injection (src/faults/); all-zero = no faults, legacy path.
  FaultPlan faults;
  /// Progress watchdog: when > 0 and no request completes for this many
  /// slots, the driver stops with RunStatus::kDegraded. 0 = off.
  SlotTime stall_slots = 0;

  static P2pConfig for_graph(const Graph& g) {
    P2pConfig c;
    c.slots.decay_len = decay_length(g.max_degree());
    return c;
  }
};

class P2pDownStation;

/// Upward subprotocol (§5.2): collection toward the least common ancestor.
class P2pUpStation final : public SubStation {
 public:
  using Delivery = AckedHop::Delivery;

  P2pUpStation(NodeId me, const RoutingInfo& info, P2pConfig cfg, Rng rng);

  /// Wires the handoff to this node's downward half (LCA turn).
  void set_down(P2pDownStation* down) noexcept { down_ = down; }

  void on_attach(Waker& w) override { hop_.attach(w); }
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override {
    hop_.tick(t, /*may_send=*/info_.parent != kNoNode);
  }

  /// Originates a transmission to DFS address `dest_addr`. Returns the
  /// per-origin sequence number assigned to it.
  std::uint32_t send(std::uint32_t dest_addr, std::uint64_t payload);

  std::size_t buffer_size() const noexcept { return hop_.size(); }
  const std::vector<Delivery>& sink() const noexcept { return sink_; }
  /// Also appends every later sink entry to `feed`, the driver's list of
  /// arrivals since its last read (it must outlive the station).
  void feed_into(std::vector<Delivery>& feed) noexcept { feed_ = &feed; }

 private:
  void route(SlotTime t, const Message& m);

  RoutingInfo info_;
  AckedHop hop_;
  P2pDownStation* down_ = nullptr;
  std::uint32_t next_seq_ = 0;
  std::vector<Delivery> sink_;
  std::vector<Delivery>* feed_ = nullptr;
};

/// Downward subprotocol (§5.3): descent by DFS-interval containment.
class P2pDownStation final : public SubStation {
 public:
  using Delivery = AckedHop::Delivery;

  P2pDownStation(NodeId me, const RoutingInfo& info, P2pConfig cfg, Rng rng);

  void on_attach(Waker& w) override { hop_.attach(w); }
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override { hop_.tick(t, /*may_send=*/true); }

  /// LCA handoff from the upward half (or from local origination). Wakes
  /// the station: the handoff happens inside the upward half's deliver,
  /// and the new buffer entry is transmit duty for the *next* poll.
  void enqueue(const Message& m) { hop_.push(m); }

  std::size_t buffer_size() const noexcept { return hop_.size(); }
  const std::vector<Delivery>& sink() const noexcept { return sink_; }
  /// Also appends every later sink entry to `feed` (see P2pUpStation).
  void feed_into(std::vector<Delivery>& feed) noexcept { feed_ = &feed; }

 private:
  RoutingInfo info_;
  AckedHop hop_;
  std::vector<Delivery> sink_;
  std::vector<Delivery>* feed_ = nullptr;
};

/// One transmission request for the driver: node `src` sends `payload` to
/// node `dst` (node ids; the driver translates to DFS addresses the way the
/// root's directory would).
struct P2pRequest {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t payload = 0;
};

struct P2pOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when the stall watchdog fired;
  /// kFailed when max_slots ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;
  std::uint64_t delivered = 0;
  /// Per request: slot at which it reached its destination (or -1).
  std::vector<SlotTime> delivery_slot;
  /// Engine on_slot invocations — what sleeping saves.
  std::uint64_t engine_polls = 0;
};

/// Runs k point-to-point transmissions injected at slot 0 and measures the
/// completion time (Theorem-4.4-style bound: O((k+D) log Delta)).
P2pOutcome run_point_to_point(const Graph& g, const PreparationResult& prep,
                              const std::vector<P2pRequest>& requests,
                              const P2pConfig& cfg, std::uint64_t seed,
                              SlotTime max_slots = 100'000'000);

}  // namespace radiomc
