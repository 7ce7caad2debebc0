#pragma once

// The station-visible half of active-set scheduling.
//
// The BGI'89 protocols spend most slots with the overwhelming majority of
// stations silent — a node in Decay broadcast does nothing until the
// message front reaches it. The engine therefore keeps an *active set* and
// polls only its members each slot (see radio/active_set.h for the engine
// half and DESIGN.md §"Engine architecture" for the full contract).
//
// A `Waker` is the handle through which a station participates. The engine
// passes one to `Station::on_attach`. One scheduling rule covers every
// station (the membership invariant, property-tested by
// tests/engine_invariants_test.cpp):
//
//   * every station starts active at attach, so it is polled in slot 0;
//   * a station is polled in slot t+1 only if it was woken for it: by
//     `wake()` during slot t (or between slots t and t+1), or by a timer
//     due at t+1. Transmitting buys no poll: a station that transmits
//     again in the next slot wakes for it like any other;
//   * `wake()` on a sleeping station guarantees it is polled in the next
//     slot (wakes raised between slots are merged before the next poll);
//   * `wake_at(t)` arms the handle's timer: the station is admitted at the
//     top of slot t, exactly as if `wake()` had been raised between slots
//     t-1 and t. A timer holds one time and the earliest armed time wins
//     (a later arm while an earlier one is pending is dropped, so a
//     station re-arms its next duty in every polled slot). `cancel()`
//     disarms it. `wake_at(t)` with t no later than the next slot is
//     plain `wake()`;
//   * a crashed station (fault injection) keeps its membership frozen — it
//     is not polled while down, and resumes exactly where it was on
//     recovery. A timer that fires while the station is down admits it
//     like a wake does: it stays frozen in the set and is polled on
//     recovery.
//
// What a station promises in return:
//
//   * while it is not in the active set, its `on_slot` would have returned
//     no transmit intent, and skipping its `on_slot` / `on_slot_end`
//     callbacks does not change any decision it will ever make (i.e. its
//     behavior is a function of absolute slot time and received messages,
//     not of how often it was polled);
//   * whenever an event makes it want to act (typically inside
//     `on_receive`), it calls `wake()` or arms `wake_at`;
//   * in every slot in which it is polled it arms its own next duty, once,
//     at the end of the slot (`on_slot_end` / `tick`), after the slot's
//     coin flips and receptions, whether it transmitted or not.
//
// A station that wants to be polled in every slot keeps the handle and
// calls `wake()` on each poll (TimeDivisionStation does).
//
// Idle spans: a slot with no member, no pending wake and no timer due at
// it polls nobody, so `RadioNetwork::run` and `run_until` skip it instead
// of running it (unless a slot hook or an enabled fault schedule is
// installed). The promise above is what makes that exact: a sleeping station is never
// called back, so passing over the span changes only the slot counter.
// Wakes and `wake_at` raised between slots keep working, since the skip
// advances the horizon that `wake_at` compares against.
//
// Time: stations know the globally known slot clock (the paper's model
// gives every node the slot number), so a station may schedule its own
// future duties with `wake_at`. A SubStation sees its own clock; the
// adapter that shifts that clock hands it a `shifted` handle so its
// `wake_at` times land on the right engine slots.
//
// Timed duty wakes: a station with work that cannot act in the next slot
// arms the first slot in which it can (the §3 hop its next data subslot,
// distribution its next superphase start) instead of calling wake() on
// every poll until the work is done.
//
// One timer per handle: the engine's handle carries the node's own timer,
// and `own_timer()` derives a handle with the same node and clock and a
// fresh timer. Sub-stations that run side by side on one node get a
// handle each (ChannelMuxStation's subs; setup's verification
// collection, which runs beside every later epoch's protocol), so one
// sub's arm or `cancel()` never moves another's, and a sub may cancel a
// duty it no longer owes (the §3 hop, when the ack pops its head) without
// losing a sibling's arm. The subs still share the node's membership bit:
// whenever the node is polled, every live sub is polled. A time-division
// frame polls one sub per slot, so TimeDivisionStation keeps its subs
// unattached and stays always-polled. A handle per sub on a strided clock
// is not enough to let it sleep: a sub's timer that fires while its node
// is crashed admits the node frozen, and the recovery poll serves only
// that slot's lane, so the other sub loses its armed duty. It needs an
// engine rule first: a strided timer that fires while its node is down is
// re-filed for the node's next slot in that timer's lane.
//
// Like the slot structure, wakes are model-legal bookkeeping: a station may
// only call `wake()`/`wake_at()` from its own callbacks (or its driver
// between slots), never from another station's state — the lint
// determinism rules apply.

#include <cstdint>

#include "graph/graph.h"
#include "radio/message.h"

namespace radiomc {

class ActiveSet;

/// An engine timer: ids [0, n) are the nodes' own, later ones belong to
/// sub-station handles (Waker::own_timer).
using TimerId = std::uint32_t;

class Waker {
 public:
  Waker() = default;

  /// Ensures this station is polled in the next slot. Idempotent; safe to
  /// call from on_slot / on_receive / on_slot_end or between slots.
  void wake() noexcept;

  /// Ensures this station is polled in slot `t` of this handle's clock
  /// (engine slot `t + origin`). One timer per handle; the earliest armed
  /// time wins. A time no later than the next slot behaves like wake().
  void wake_at(SlotTime t) noexcept;

  /// Disarms this handle's timer (pending wakes stand). A no-op when the
  /// timer is not armed.
  void cancel() noexcept;

  /// A handle for the same station and clock with a fresh timer of its
  /// own: for adapters that host several sub-stations on one node.
  /// Unattached when this handle is.
  Waker own_timer() const;

  /// The node this handle belongs to.
  NodeId node() const noexcept { return node_; }

  /// False for a default-constructed handle (station not attached to an
  /// active-set engine).
  bool attached() const noexcept { return set_ != nullptr; }

  /// A handle for the same station whose clock starts at slot `origin` of
  /// this handle's clock: for adapters that run a SubStation on a shifted
  /// local time (setup epochs). wake() is unaffected.
  Waker shifted(SlotTime origin) const noexcept {
    Waker w = *this;
    w.origin_ += origin;
    return w;
  }

 private:
  friend class ActiveSet;

  ActiveSet* set_ = nullptr;
  NodeId node_ = kNoNode;
  TimerId timer_ = 0;
  SlotTime origin_ = 0;  ///< engine slot of this handle's local slot 0
};

}  // namespace radiomc
