#pragma once

// Per-node protocol interfaces.
//
// Protocol logic lives in per-node state machines that see only what the
// paper lets a node see: its own id, its neighbors' ids, n, the degree
// bound Delta, and the messages it receives.
//
// Two levels of interface:
//
//  * `Station` is what the slot engine drives: one callback per slot that
//    may transmit on any subset of channels (the paper's "separate
//    channels" idealization gives a node one transceiver per channel).
//  * `SubStation` is a single-channel protocol machine (Decay, collection,
//    distribution, ...). Adapters compose SubStations onto a Station:
//    `ChannelMuxStation` gives each SubStation its own channel (§1.4
//    "separate channels"); `TimeDivisionStation` interleaves them on one
//    channel ("the odd time slots are dedicated to the upward traffic ...
//    and the even ones to the downwards traffic").

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "radio/message.h"
#include "radio/waker.h"

namespace radiomc {

class Station {
 public:
  virtual ~Station() = default;
  Station() = default;
  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Called once when the engine adopts the station, before the first
  /// slot. `w` stays valid for the station's attached lifetime. A station
  /// is polled in slot 0 and then only in the slots it was woken for (see
  /// radio/waker.h), so one that acts later keeps the handle, arms its
  /// next duty at the end of each polled slot and wakes on the events that
  /// make it want to act. The default ignores the handle: the station is
  /// polled in slot 0 only.
  virtual void on_attach(Waker& /*w*/) {}

  /// Decide this slot's action: `tx` has one entry per channel; set
  /// `tx[c]` to transmit on channel c, leave it empty to listen there.
  virtual void on_slot(SlotTime t, std::span<std::optional<Message>> tx) = 0;

  /// Called when exactly one neighbor transmitted on channel `ch` in slot
  /// `t` and this station was listening on `ch`. There is no collision
  /// detection: when two or more neighbors transmit, nothing is called.
  virtual void on_receive(SlotTime t, ChannelId ch, const Message& m) = 0;

  /// Called at the end of every slot (after all receptions), for timers.
  virtual void on_slot_end(SlotTime /*t*/) {}
};

/// A single-channel protocol state machine; composed onto channels or time
/// slices by the adapters below. Time passed to a SubStation is *its own*
/// slot count (under time division it advances once per frame).
class SubStation {
 public:
  virtual ~SubStation() = default;
  SubStation() = default;
  SubStation(const SubStation&) = delete;
  SubStation& operator=(const SubStation&) = delete;

  /// Engine adoption, forwarded by SingleStation, by ChannelMuxStation
  /// (a handle with its own timer per sub) and by setup's per-node station
  /// (with a `Waker::shifted` handle on the sub-station's clock); each
  /// SubStation keeps the Waker contract (radio/waker.h) for itself.
  /// TimeDivisionStation never forwards: it wakes itself in every slot
  /// instead.
  virtual void on_attach(Waker& /*w*/) {}

  /// Transmit decision for the SubStation's slot `t` (nullopt = listen).
  virtual std::optional<Message> poll(SlotTime t) = 0;
  /// Successful reception in the SubStation's slot `t`.
  virtual void deliver(SlotTime t, const Message& m) = 0;
  /// End of the SubStation's slot `t`.
  virtual void tick(SlotTime /*t*/) {}
};

/// Runs one SubStation on channel 0 of a single-channel network.
class SingleStation final : public Station {
 public:
  explicit SingleStation(SubStation& sub) : sub_(&sub) {}
  void on_attach(Waker& w) override { sub_->on_attach(w); }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    tx[0] = sub_->poll(t);
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    sub_->deliver(t, m);
  }
  void on_slot_end(SlotTime t) override { sub_->tick(t); }

 private:
  SubStation* sub_;
};

/// SubStation i <-> channel i; all advance every slot (separate channels).
class ChannelMuxStation final : public Station {
 public:
  /// Hands every SubStation a handle of its own (`Waker::own_timer`),
  /// kept here. The subs share one membership bit, so the node sleeps
  /// exactly when no sub woke for the next slot, which each sub's own
  /// Waker promise makes safe; each sub's timer is its own, so a sub's
  /// arm or cancel leaves the others' duties alone (radio/waker.h, "One
  /// timer per handle").
  explicit ChannelMuxStation(std::vector<SubStation*> subs)
      : subs_(std::move(subs)) {}
  void on_attach(Waker& w) override {
    wakers_.assign(subs_.size(), Waker{});
    for (std::size_t c = 0; c < subs_.size(); ++c) {
      wakers_[c] = w.own_timer();
      subs_[c]->on_attach(wakers_[c]);
    }
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    for (std::size_t c = 0; c < subs_.size(); ++c) tx[c] = subs_[c]->poll(t);
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    if (ch < subs_.size()) subs_[ch]->deliver(t, m);
  }
  void on_slot_end(SlotTime t) override {
    for (auto* s : subs_) s->tick(t);
  }

 private:
  std::vector<SubStation*> subs_;
  std::vector<Waker> wakers_;  ///< one per sub; stable after on_attach
};

/// SubStation i active in physical slots t with t % k == i, on channel 0,
/// seeing virtual time t / k. The paper's single-channel multiplexing.
/// Always polled: a sub's duty wake buys exactly one polled slot, so a
/// node that slept on its subs' wakes could sleep through the *other*
/// sub's dedicated slots; the subs never see the Waker.
class TimeDivisionStation final : public Station {
 public:
  explicit TimeDivisionStation(std::vector<SubStation*> subs)
      : subs_(std::move(subs)) {}
  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    tx[0] = active(t)->poll(t / subs_.size());
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    active(t)->deliver(t / subs_.size(), m);
  }
  void on_slot_end(SlotTime t) override {
    active(t)->tick(t / subs_.size());
    waker_.wake();
  }

 private:
  SubStation* active(SlotTime t) const { return subs_[t % subs_.size()]; }
  std::vector<SubStation*> subs_;
  Waker waker_;
};

}  // namespace radiomc
