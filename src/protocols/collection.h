#pragma once

// The collection protocol (§4): converge-cast of messages from arbitrary
// sources to the root of the BFS tree.
//
// Every node keeps a buffer of unacknowledged messages. The protocol
// proceeds in phases; in each phase a node with a nonempty buffer runs one
// Decay invocation to send its head message to its BFS parent on the data
// subslots, and the interleaved ack subslots carry the deterministic
// acknowledgements of §3. A message is removed from the sender's buffer
// exactly when its parent acknowledged it, so messages live on exactly one
// buffer and climb the tree child -> parent (§4.1).
//
// Messages carry the sender's id and the sender's BFS-parent id (§4); a
// node accepts exactly the messages whose `sender_parent` field names
// itself, i.e. messages from its own BFS children.
//
// The buffer, the per-phase Decay, the acks and the timed duty wakes are
// the §3 hop core (acked_hop.h), shared with both halves of point-to-point.
// Every CollectionStation sleeps (radio/waker.h) where the Waker reaches
// it: it is polled only in the slots where it may send its head or owes an
// ack, and with an empty buffer and no owed ack it waits for a child's
// message or an inject. A skipped poll never reaches Decay or draws
// randomness, so only EngineStats::station_polls changes;
// tests/engine_diff_test.cpp proves it against the always-polled reference
// engine.
// CollectionStation adds only what is collection's own: it accepts
// upbound messages from its children, hands arrivals at the root to the
// sink (with the Remark 3 dedup guard and the Theorem 4.1 accept log),
// and never sends from the root.
//
// Randomness affects only the running time: on the graph spanned by the
// BFS tree the protocol always succeeds (§1.2).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "protocols/acked_hop.h"
#include "protocols/tree.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {

/// The observers (radio/trace.h) serve run_collection: one drain span for
/// the hub and the profiler ("collection.drain"), per-level advance counters
/// and queue-depth histograms in the hub, slot/phase/delivery counters.
struct CollectionConfig : Observers {
  SlotStructure slots;  ///< decay_len from Delta; ack + mod-3 on by default

  /// §8 Remark 3: under the capture conflict model an acknowledgement can
  /// be lost (the deterministic Theorem 3.1 argument needs collisions to
  /// be silent), so a sender may retransmit a message its parent already
  /// has. With the guard on, receivers remember the (origin, seq) key they
  /// last accepted from each child, re-acknowledge a message that repeats
  /// it, and deliver each message once — the paper's "more complicated,
  /// less reliable and slower protocol". One key per child is exact: a
  /// child sends only its FIFO head and pops it only on the ack for that
  /// key, and its own guard keeps duplicates out of its FIFO, so the only
  /// message it can send again is the one it sent last. The guard's
  /// memory is O(children), not O(messages ever relayed).
  /// Off by default: the main model needs no duplicate state.
  bool dedup_guard = false;

  /// Fault injection (src/faults/): run_collection compiles this against
  /// the graph and a stream split off the run seed. All-zero (the default)
  /// means no faults and the engine's exact legacy behavior.
  FaultPlan faults;
  /// Progress watchdog: when > 0 and the root has received nothing for
  /// this many slots, the driver stops with RunStatus::kDegraded instead
  /// of burning the rest of max_slots. 0 = off.
  SlotTime stall_slots = 0;

  static CollectionConfig for_graph(const Graph& g) {
    CollectionConfig c;
    c.slots.decay_len = decay_length(g.max_degree());
    return c;
  }
};

/// Per-node state machine of the collection protocol. Single-channel
/// (SubStation); compose with ChannelMuxStation / TimeDivisionStation to
/// run it next to a distribution pipeline (§1.4).
class CollectionStation final : public SubStation {
 public:
  using Delivery = AckedHop::Delivery;

  CollectionStation(NodeId me, const BfsTree& tree, CollectionConfig cfg,
                    Rng rng);

  /// Unbound variant for the setup phase: the node's tree position arrives
  /// later, via set_local, when it joins the BFS tree. Until then the
  /// station neither sends nor accepts.
  CollectionStation(NodeId me, CollectionConfig cfg, Rng rng);
  void set_local(NodeId parent, std::uint32_t level, bool is_root);
  bool bound() const noexcept { return bound_; }
  /// Clears all protocol state (buffers, sink, logs) and re-seeds the
  /// randomness; the root handler is kept. Used between setup attempts.
  void reset(Rng rng);

  void on_attach(Waker& w) override { hop_.attach(w); }
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override {
    hop_.tick(t, /*may_send=*/bound_ && !is_root_);
  }

  /// Application-level origination: enqueue a message for the root. The
  /// caller provides origin == this node's id and a per-origin-unique seq.
  /// Wakes the station if the engine descheduled it (drivers inject
  /// between slots; Waker::wake is merged before the next poll).
  void inject(const Message& m);

  NodeId id() const noexcept { return hop_.id(); }
  std::uint32_t level() const noexcept { return hop_.level(); }
  bool is_root() const noexcept { return is_root_; }
  std::size_t buffer_size() const noexcept { return hop_.size(); }
  /// Counts this station's buffer into `per_level[level()]` from now on
  /// (AckedHop::count_into).
  void count_buffer_into(std::vector<std::uint64_t>& per_level) {
    hop_.count_into(per_level);
  }

  /// Root only: everything delivered so far, in arrival order.
  const std::vector<Delivery>& root_sink() const noexcept { return sink_; }
  /// Root only: moves the deliveries since the last take into `out`
  /// (replacing its contents) and empties the sink, so a driver that runs
  /// indefinitely holds only what arrived since its last harvest.
  void take_root_sink(std::vector<Delivery>& out) noexcept {
    out.clear();
    out.swap(sink_);
  }
  /// Root only: hook invoked on each arrival (used by BroadcastService to
  /// feed the distribution pipeline). Set once before the run.
  void set_root_handler(std::function<void(SlotTime, const Message&)> h) {
    root_handler_ = std::move(h);
  }

  /// Accepted-from-child log for Theorem 4.1 measurements: (phase, level of
  /// the child the message came from). Enabled via `record_accepts`.
  void record_accepts(bool on) noexcept { record_accepts_ = on; }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& accept_log()
      const noexcept {
    return accept_log_;
  }

  const PhaseClock& clock() const noexcept { return hop_.clock(); }

 private:
  /// Root only: an arrival goes to the sink and the root handler.
  void arrive(SlotTime t, const Message& m);

  AckedHop hop_;
  bool is_root_ = false;
  bool bound_ = false;

  std::vector<Delivery> sink_;
  std::function<void(SlotTime, const Message&)> root_handler_;
  bool record_accepts_ = false;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> accept_log_;
  bool dedup_guard_ = false;
  /// Guard mode only: child -> (origin << 32) | seq of the message last
  /// accepted from it (see CollectionConfig::dedup_guard).
  std::map<NodeId, std::uint64_t> last_key_;
};

/// Standalone driver: places `initial` messages (each (origin, seq) once)
/// on their origins' buffers, runs the protocol until the root has
/// received all of them (or max_slots elapses), and reports timing plus the
/// per-level phase statistics used by the Theorem 4.1 experiment.
struct CollectionOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when the stall watchdog fired;
  /// kFailed when max_slots ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;
  std::uint64_t phases = 0;
  /// The first copy of each message to reach the root, in arrival order
  /// (a copy resent after a lost ack is not counted again).
  std::vector<CollectionStation::Delivery> deliveries;

  /// Per level i >= 1: phases at whose start level i held >= 1 message, and
  /// among those, phases during which >= 1 message moved from level i to
  /// level i-1 (Theorem 4.1's event).
  std::vector<std::uint64_t> occupied_phases;
  std::vector<std::uint64_t> advance_phases;

  /// Engine on_slot invocations (EngineStats::station_polls): scheduling
  /// economy, not radio physics — sleeping stations lower it while
  /// everything above stays what the always-polled engine computes.
  std::uint64_t engine_polls = 0;
};

CollectionOutcome run_collection(const Graph& g, const BfsTree& tree,
                                 std::vector<Message> initial,
                                 const CollectionConfig& cfg,
                                 std::uint64_t seed,
                                 SlotTime max_slots = 100'000'000);

}  // namespace radiomc
