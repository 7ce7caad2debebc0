#include "protocols/acked_hop.h"

#include <utility>

namespace radiomc {

AckedHop::AckedHop(NodeId me, const SlotStructure& slots, Rng rng)
    : me_(me), clock_(slots), rng_(rng), decay_(slots.decay_len) {}

void AckedHop::place(NodeId parent, std::uint32_t level) {
  if (per_level_ != nullptr) {
    (*per_level_)[level_] -= fifo_.size();
    (*per_level_)[level] += fifo_.size();
  }
  parent_ = parent;
  level_ = level;
  wake();
}

void AckedHop::reset(Rng rng) {
  if (per_level_ != nullptr) (*per_level_)[level_] -= fifo_.size();
  parent_ = kNoNode;
  level_ = 0;
  rng_ = rng;
  fifo_.clear();
  decay_.reset();
  owed_ack_.reset();
}

void AckedHop::count_into(std::vector<std::uint64_t>& per_level) {
  per_level_ = &per_level;
  per_level[level_] += fifo_.size();
}

void AckedHop::attach(Waker& w) {
  waker_ = &w;
}

std::optional<Message> AckedHop::poll(SlotTime t, bool may_send) {
  const bool sending = may_send && !fifo_.empty();
  if (!sending && !owed_ack_) return std::nullopt;
  const PhaseClock::SlotInfo info = clock_.decode(t);

  if (info.is_ack && owed_ack_) return std::exchange(owed_ack_, std::nullopt);
  // Data subslot: one Decay invocation per phase for the head (§4.1).
  if (info.is_ack || !sending || !clock_.level_may_send_data(info, level_) ||
      !decay_.transmits_in(info.phase))
    return std::nullopt;
  Message m = fifo_.front();
  m.sender = me_;
  m.sender_parent = parent_;  // §4: appended so receivers can classify
  return m;
}

bool AckedHop::receive(SlotTime t, const Message& m) {
  if (!clock_.decode(t).is_ack) return true;
  if (m.kind != MsgKind::kAck || m.dest != me_ || fifo_.empty()) return false;
  const Message& head = fifo_.front();
  if (m.origin == head.origin && m.seq == head.seq) {
    // The next hop has the message; it now lives on exactly one buffer.
    fifo_.pop_front();
    if (per_level_ != nullptr) --(*per_level_)[level_];
    decay_.stop();
    // The data slot armed for the popped head would be a silent poll:
    // disarm it, and arm what that poll's tick would have armed.
    if (waker_ != nullptr) {
      waker_->cancel();
      if (!fifo_.empty())
        waker_->wake_at(decay_.next_transmit_slot(clock_, t, level_));
    }
  }
  return false;
}

void AckedHop::tick(SlotTime t, bool may_send) {
  decay_.end_slot(rng_);
  // Sleep until the next slot that can act, judged after this slot's coin
  // and receptions: an owed ack wants the next slot; a message mid-drain,
  // its next chance to fire (a popped head's successor waits for the next
  // phase). A FIFO with nowhere to go never drains and never wakes.
  if (waker_ == nullptr) return;
  if (owed_ack_) {
    waker_->wake();
  } else if (may_send && !fifo_.empty()) {
    waker_->wake_at(decay_.next_transmit_slot(clock_, t, level_));
  }
}

void AckedHop::acknowledge(const Message& m) {
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.dest = m.sender;
  ack.origin = m.origin;
  ack.seq = m.seq;
  owed_ack_ = ack;
  wake();  // due in the next ack subslot
}

void AckedHop::push(const Message& m) {
  fifo_.push_back(m);
  if (per_level_ != nullptr) ++(*per_level_)[level_];
  wake();
}

}  // namespace radiomc
