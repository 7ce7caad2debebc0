#pragma once

// The §3 acknowledged hop: the one mechanism behind collection (§4) and
// both halves of point-to-point (§5).
//
// A node keeps a FIFO of the messages it still owes its next hop. In every
// phase it runs one Decay invocation for the head message on the data
// subslots its BFS level may use (§2.2 mod-3 gating), stamping its own id
// and its BFS parent's id on each copy (§4). A receiver that accepts a
// data message owes the deterministic acknowledgement of §3 and sends it
// in the next ack subslot; the sender drops its head exactly when that ack
// arrives, so a message lives on exactly one buffer (Theorem 3.1).
//
// `AckedHop` owns all of that. Its owner station keeps only what differs
// between the protocols: which data receptions it accepts (it calls
// `acknowledge` for those), where an accepted message goes (`push` to send
// it on, or a sink), and whether it may send at all (`poll`'s `may_send`).
//
// Sleeping (radio/waker.h), always, on timed duty wakes: at the end of
// every slot it is polled in, after the Decay coin and the slot's
// receptions, the station wakes for the next slot if it owes an ack, and
// otherwise, if it holds a message it may send, arms its timer for the
// next slot in which that message can fire (the level's next data
// subslot while this phase's Decay is alive, else the first one of the
// next phase). Acknowledging a data message and a push wake the station;
// any other reception leaves it asleep. That includes the ack that pops
// the head: a sender that transmitted data arms its next data subslot,
// not the ack subslot, and the ack needs no poll to land. The pop cancels
// that arm, which would only buy a silent poll, and re-arms the slot the
// silent poll's tick would have armed when the FIFO still holds a
// message. The hop may cancel because its handle's timer is its own
// (radio/waker.h, "One timer per handle"). Every slot the station sleeps
// through would have been a silent poll that draws no randomness, so
// only the engine's poll count changes.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "protocols/decay.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

class AckedHop {
 public:
  /// One message handed to its final consumer, with the slot it arrived.
  struct Delivery {
    SlotTime slot = 0;
    Message msg;
  };

  AckedHop(NodeId me, const SlotStructure& slots, Rng rng);

  /// Places the node in the BFS tree: `parent` is stamped on every copy it
  /// sends, `level` gates its data subslots. Wakes the station, since the
  /// new position may let it send.
  void place(NodeId parent, std::uint32_t level);
  /// Back to the unplaced, empty state (no FIFO, no owed ack, no Decay)
  /// with fresh randomness.
  void reset(Rng rng);

  /// Makes `per_level[level()]` count this hop's FIFO from now on: push,
  /// pop, place and reset move the count with the messages, so a driver
  /// reads the messages queued per BFS level without visiting the
  /// stations. `per_level` is the driver's; it must outlive the hop and
  /// have an entry for every level the hop is placed at.
  void count_into(std::vector<std::uint64_t>& per_level);

  /// The owner's on_attach: keeps the Waker, whose timer must be the
  /// hop's alone (a pop cancels it).
  void attach(Waker& w);
  void wake() {
    if (waker_ != nullptr) waker_->wake();
  }

  /// Transmit decision for slot `t`: the owed ack in an ack subslot, the
  /// head message under this phase's Decay in a data subslot. `may_send`
  /// is the owner's verdict on whether its FIFO has somewhere to go.
  std::optional<Message> poll(SlotTime t, bool may_send);
  /// A reception in slot `t` (receptions reach sleeping stations too). An
  /// ack-subslot reception is the hop's own business: a matching ack pops
  /// the head and moves the timer to the next message's first chance; it
  /// returns false. A data-subslot reception returns true for the owner
  /// to classify.
  bool receive(SlotTime t, const Message& m);
  /// Owes the §3 acknowledgement of data message `m` in the next ack
  /// subslot, and wakes the station to send it.
  void acknowledge(const Message& m);
  /// Appends `m` to the FIFO and wakes the station: it is transmit duty
  /// for the next poll.
  void push(const Message& m);
  /// The owner's tick for slot `t`, with poll's `may_send`: flips the
  /// Decay coin after a transmitting slot, then arms the station's next
  /// duty.
  void tick(SlotTime t, bool may_send);

  NodeId id() const noexcept { return me_; }
  std::uint32_t level() const noexcept { return level_; }
  std::size_t size() const noexcept { return fifo_.size(); }
  const PhaseClock& clock() const noexcept { return clock_; }

 private:
  NodeId me_;
  NodeId parent_ = kNoNode;
  std::uint32_t level_ = 0;
  PhaseClock clock_;
  Rng rng_;
  std::deque<Message> fifo_;
  DecayProcess decay_;
  std::optional<Message> owed_ack_;
  Waker* waker_ = nullptr;  ///< set by attach
  std::vector<std::uint64_t>* per_level_ = nullptr;  ///< set by count_into
};

}  // namespace radiomc
