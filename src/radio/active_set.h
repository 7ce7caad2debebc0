#pragma once

// Engine-side active-set bookkeeping (the notifier half of the
// task/notifier idiom: stations sleep until something wakes them, the
// engine polls only the awake ones).
//
// Membership is an ordered bitset (radio/ordered_bits.h) plus the
// ascending vector of its members, so the slot loop iterates members in
// ascending id order — the same order the legacy full-scan engine used,
// which is what keeps transmit lists, trace streams and capture-RNG draws
// byte-identical to the pre-rewrite engine.
//
// Cost model: `begin_slot` is O(wakes since last slot) plus, when any
// timer is armed, one timer-wheel bucket; `end_slot` is O(active + wakes).
// On slots where a sleeping station actually joined, `begin_slot` also
// rebuilds the member vector from a walk of the bitset, O(active) plus
// the summary words between the lowest and highest member; no sort.
// An idle slot (no member, no pending wake, no timer due) needs neither:
// `skip_idle` finds the end of an idle span by looking at one bucket per
// slot, or at nothing when no timer is armed.
//
// Timers: each timer has at most one armed time, kept in a hashed timer
// wheel (bucket = time mod kWheel) as an intrusive doubly linked list, so
// arming, re-arming, cancelling and firing are O(1) and memory stays
// O(timers) however often stations re-arm. A bucket holds the timers due
// at that slot and those due whole turns later; a far timer is passed
// over once per turn. Timer ids [0, n) are the nodes' own; `add_timer`
// appends more, each admitting one node when it fires (a sub-station's
// own timer, radio/waker.h).
//
// All state is plain data owned by one engine; nothing here is
// thread-safe (one RadioNetwork = one trial = one thread, as everywhere
// in this codebase).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "radio/ordered_bits.h"
#include "radio/waker.h"

namespace radiomc {

class ActiveSet {
 public:
  /// Resets to n stations, all active, no pending wakes or timers.
  void reset(NodeId n);

  NodeId size() const noexcept { return n_; }

  /// Current members, ascending. Valid until the next begin/end_slot.
  std::span<const NodeId> active() const noexcept {
    return {active_.data(), active_.size()};
  }
  bool contains(NodeId v) const noexcept { return members_.contains(v); }

  /// Raises a wake for `v`: guarantees membership in the next slot and
  /// counts as "woken this slot" for the retention rule. Idempotent.
  void wake(NodeId v);
  /// Keeps member `v` through this slot's end_slot without a wake: a
  /// crashed station's frozen membership. Counts no wake event.
  void freeze(NodeId v);
  /// Arms timer `id` for slot `t` (earliest pending time wins). A time no
  /// later than the next slot is a wake of the timer's node.
  void wake_at(TimerId id, SlotTime t);
  /// Disarms timer `id`; a no-op when it is not armed.
  void cancel(TimerId id);
  /// Appends a timer that admits node `v`; returns its id (>= size()).
  TimerId add_timer(NodeId v);

  /// Fires the timers due at `now`, then admits them and the stations
  /// woken since the previous slot (rebuilding the member list only if a
  /// non-member actually joined). Call at the top of every slot.
  void begin_slot(SlotTime now);

  /// Applies the retention rule after all of a slot's callbacks ran:
  /// a member stays only if a wake was raised for it during the slot or
  /// it was frozen. Transmitting keeps nobody. Consumes this slot's marks.
  void end_slot();

  /// Passes over the idle slots from `now` (the next slot to run) and
  /// returns the first slot in [now, end) that is not idle, or `end`.
  /// Slot t is idle iff there are no members, no pending wakes and no
  /// timer due at t; running it would change nothing here but the
  /// horizon, so that is all a skip moves (a wake_at between slots then
  /// files against the right next slot). Looks at the wheel bucket of
  /// each skipped slot, and at none when no timer is armed. Call between
  /// slots.
  SlotTime skip_idle(SlotTime now, SlotTime end);

  /// Total wake() calls that raised a new mark (telemetry for tests and
  /// the engine's debug stats).
  std::uint64_t wake_events() const noexcept { return wake_events_; }

  /// Binds `w` to (this, v, v's own timer) so Station::on_attach can hand
  /// out handles.
  void bind(Waker* w, NodeId v) noexcept {
    w->set_ = this;
    w->node_ = v;
    w->timer_ = v;
    w->origin_ = 0;
  }

 private:
  static constexpr SlotTime kNoTimer = ~SlotTime{0};
  static constexpr TimerId kNoLink = ~TimerId{0};
  static constexpr SlotTime kWheel = 1024;  // buckets, a power of two

  void queue(NodeId v);
  void unlink(TimerId id);
  void fire_timers(SlotTime now);
  NodeId node_of(TimerId id) const noexcept {
    return id < n_ ? id : owner_[id - n_];
  }

  NodeId n_ = 0;
  std::vector<NodeId> active_;            // members_, ascending
  OrderedBits members_;
  std::vector<std::uint8_t> kept_flag_;   // woken or frozen this slot, by node
  std::vector<std::uint8_t> pending_flag_;  // queued for admission, by node
  std::vector<NodeId> slot_kept_;         // nodes with kept_flag_ set
  std::vector<NodeId> pending_;           // nodes with pending_flag_ set
  std::vector<NodeId> owner_;  // node of timer n_ + i, by i
  // Timer wheel, allocated on the first wake_at.
  std::vector<SlotTime> timer_;       // armed time or kNoTimer, by timer
  std::vector<TimerId> next_, prev_;  // bucket list links, by timer
  std::vector<TimerId> bucket_;       // list head per bucket
  std::size_t armed_ = 0;             // armed timers
  SlotTime horizon_ = 0;  // next slot to run; wake_at(t <= horizon_) is wake()
  std::uint64_t wake_events_ = 0;
};

}  // namespace radiomc
