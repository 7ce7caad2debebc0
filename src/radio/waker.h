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
//   * an active station stays active for the next slot iff it returned a
//     transmit intent this slot or `wake()` was called for it during this
//     slot;
//   * `wake()` on a sleeping station guarantees it is polled in the next
//     slot (wakes raised between slots are merged before the next poll);
//   * `wake_at(t)` arms a per-station timer: the station is admitted at the
//     top of slot t, exactly as if `wake()` had been raised between slots
//     t-1 and t. A station has one timer and the earliest armed time wins
//     (a later arm while an earlier one is pending is dropped, so a
//     station re-arms its next duty on every poll). `wake_at(t)` with t no
//     later than the next slot is plain `wake()`;
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
//     `on_receive`), it calls `wake()` or arms `wake_at`.
//
// A station that wants to be polled in every slot keeps the handle and
// calls `wake()` on each poll (TimeDivisionStation and the scripted wave
// baseline do).
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
// One timer, many subs: the SubStations of a ChannelMuxStation, and
// setup's per-node station, share one handle and so one timer, where an
// earlier arm overrides a later one. This is sound because every sub
// re-arms (or wakes) its own duty on every poll that does not transmit,
// and the owner polls every live sub whenever it is polled: a sub whose
// later time was dropped is polled at the earlier one and arms again
// there. An arm raised from a reception (distribution's
// register fill) is covered the same way. A time-division frame polls one
// sub per slot, so there a dropped arm would never be re-armed:
// TimeDivisionStation keeps its subs unattached and stays always-polled.
//
// Like the slot structure, wakes are model-legal bookkeeping: a station may
// only call `wake()`/`wake_at()` from its own callbacks (or its driver
// between slots), never from another station's state — the lint
// determinism rules apply.

#include "graph/graph.h"
#include "radio/message.h"

namespace radiomc {

class ActiveSet;

class Waker {
 public:
  Waker() = default;

  /// Ensures this station is polled in the next slot. Idempotent; safe to
  /// call from on_slot / on_receive / on_slot_end or between slots.
  void wake() noexcept;

  /// Ensures this station is polled in slot `t` of this handle's clock
  /// (engine slot `t + origin`). One timer per station; the earliest armed
  /// time wins. A time no later than the next slot behaves like wake().
  void wake_at(SlotTime t) noexcept;

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
  SlotTime origin_ = 0;  ///< engine slot of this handle's local slot 0
};

}  // namespace radiomc
