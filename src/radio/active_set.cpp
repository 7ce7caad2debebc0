#include "radio/active_set.h"

namespace radiomc {

void ActiveSet::reset(NodeId n) {
  n_ = n;
  active_.resize(n);
  members_.reset(n);
  for (NodeId v = 0; v < n; ++v) {
    active_[v] = v;
    members_.insert(v);
  }
  kept_flag_.assign(n, 0);
  pending_flag_.assign(n, 0);
  slot_kept_.clear();
  pending_.clear();
  owner_.clear();
  timer_.clear();
  next_.clear();
  prev_.clear();
  bucket_.clear();
  armed_ = 0;
  horizon_ = 0;
  wake_events_ = 0;
}

void ActiveSet::wake(NodeId v) {
  if (!kept_flag_[v]) ++wake_events_;
  freeze(v);
  queue(v);
}

void ActiveSet::freeze(NodeId v) {
  if (!kept_flag_[v]) {
    kept_flag_[v] = 1;
    slot_kept_.push_back(v);
  }
}

void ActiveSet::queue(NodeId v) {
  if (!pending_flag_[v]) {
    pending_flag_[v] = 1;
    pending_.push_back(v);
  }
}

void ActiveSet::wake_at(TimerId id, SlotTime t) {
  if (t <= horizon_) {
    wake(node_of(id));
    return;
  }
  if (timer_.empty()) {
    const std::size_t timers = n_ + owner_.size();
    timer_.assign(timers, kNoTimer);
    next_.assign(timers, kNoLink);
    prev_.assign(timers, kNoLink);
    bucket_.assign(kWheel, kNoLink);
  }
  if (t >= timer_[id]) return;  // the earliest armed time wins
  if (timer_[id] == kNoTimer) {
    ++armed_;
  } else {
    unlink(id);
  }
  timer_[id] = t;
  TimerId& head = bucket_[t & (kWheel - 1)];
  prev_[id] = kNoLink;
  next_[id] = head;
  if (head != kNoLink) prev_[head] = id;
  head = id;
}

void ActiveSet::cancel(TimerId id) {
  if (timer_.empty() || timer_[id] == kNoTimer) return;
  unlink(id);
  timer_[id] = kNoTimer;
  --armed_;
}

TimerId ActiveSet::add_timer(NodeId v) {
  owner_.push_back(v);
  if (!timer_.empty()) {
    timer_.push_back(kNoTimer);
    next_.push_back(kNoLink);
    prev_.push_back(kNoLink);
  }
  return static_cast<TimerId>(n_ + owner_.size() - 1);
}

void ActiveSet::unlink(TimerId id) {
  if (prev_[id] != kNoLink) {
    next_[prev_[id]] = next_[id];
  } else {
    bucket_[timer_[id] & (kWheel - 1)] = next_[id];
  }
  if (next_[id] != kNoLink) prev_[next_[id]] = prev_[id];
}

void ActiveSet::fire_timers(SlotTime now) {
  for (TimerId id = bucket_[now & (kWheel - 1)]; id != kNoLink;) {
    const TimerId next = next_[id];
    if (timer_[id] == now) {  // else due on a later turn of the wheel
      unlink(id);
      timer_[id] = kNoTimer;
      --armed_;
      // Admission only, like a wake raised between slots: it buys this
      // slot's poll and no retention mark. A crashed station admitted
      // here is kept frozen by the engine and polled on recovery.
      queue(node_of(id));
    }
    id = next;
  }
}

SlotTime ActiveSet::skip_idle(SlotTime now, SlotTime end) {
  if (!active_.empty() || !pending_.empty()) return now;
  SlotTime t = now;
  if (armed_ == 0) {
    t = end;
  } else {
    for (; t < end; ++t) {
      TimerId id = bucket_[t & (kWheel - 1)];
      while (id != kNoLink && timer_[id] != t) id = next_[id];  // later turns
      if (id != kNoLink) break;
    }
  }
  horizon_ = t;
  return t;
}

void ActiveSet::begin_slot(SlotTime now) {
  // From here on, wake_at(now + 1) means "poll next slot", i.e. wake().
  horizon_ = now + 1;
  if (armed_ != 0) fire_timers(now);
  if (pending_.empty()) return;
  bool joined = false;
  for (const NodeId v : pending_) {
    pending_flag_[v] = 0;
    // A wake raised between slots buys exactly this slot's poll; consume
    // its mark here or end_slot would honor it a second time and grant a
    // bonus slot of membership. (Marks raised *during* the slot come after
    // this drain and are consumed by end_slot, as the retention rule says.)
    kept_flag_[v] = 0;
    joined |= members_.insert(v);
  }
  pending_.clear();
  // Members must stay ascending: the slot loop's iteration order is what
  // keeps the rewritten engine byte-identical to the legacy full scan.
  if (joined) {
    active_.clear();
    members_.for_each([this](std::size_t v) {
      active_.push_back(static_cast<NodeId>(v));
    });
  }
}

void ActiveSet::end_slot() {
  std::size_t w = 0;
  for (const NodeId v : active_) {
    if (kept_flag_[v]) {
      active_[w++] = v;
    } else {
      members_.erase(v);
    }
  }
  active_.resize(w);
  // Wake marks are per-slot; pending_ persists so wakes raised late in the
  // slot (or between slots) still admit the station next begin_slot.
  for (const NodeId v : slot_kept_) kept_flag_[v] = 0;
  slot_kept_.clear();
}

// --- Waker -----------------------------------------------------------------
// Out of line so the station-visible header (radio/waker.h) does not pull
// the engine-side container into every protocol translation unit.

void Waker::wake() noexcept {
  if (set_ != nullptr) set_->wake(node_);
}

void Waker::wake_at(SlotTime t) noexcept {
  if (set_ != nullptr) set_->wake_at(timer_, origin_ + t);
}

void Waker::cancel() noexcept {
  if (set_ != nullptr) set_->cancel(timer_);
}

Waker Waker::own_timer() const {
  Waker w = *this;
  if (set_ != nullptr) w.timer_ = set_->add_timer(node_);
  return w;
}

}  // namespace radiomc
