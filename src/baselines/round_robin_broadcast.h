#pragma once

// Deterministic round-robin broadcast: informed nodes transmit one at a
// time in a global id-indexed TDMA frame, so there is never a collision
// and the flood advances at least one BFS level per frame — completing in
// at most D frames of n slots each.
//
// This is the natural deterministic comparison point for §1.3's
// exponential gap: Bar-Yehuda, Goldreich & Itai prove every deterministic
// broadcast needs Omega(n) slots on some D = 2 network, while their
// randomized protocol needs O((D + log(n/eps)) log Delta). Experiment E14
// measures the representative instance: Theta(n) for round robin vs
// polylog for the randomized flood on D = 2 graphs.

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/frame.h"
#include "graph/graph.h"
#include "radio/message.h"
#include "radio/station.h"

namespace radiomc::baselines {

/// A node of the round-robin frame: once informed it transmits in slot t
/// with t mod n == its id, and sleeps until its next frame slot
/// (`wake_at`) in between. Uninformed, it sleeps until the message
/// arrives.
class RoundRobinStation final : public SubStation {
 public:
  RoundRobinStation(NodeId me, NodeId n) : me_(me), n_(n) {}

  void seed() {
    informed_ = true;
    informed_at_ = 0;
  }
  bool informed() const noexcept { return informed_; }
  SlotTime informed_at() const noexcept { return informed_at_; }

  void on_attach(Waker& w) override { waker_ = w; }
  std::optional<Message> poll(SlotTime t) override {
    if (!informed_) return std::nullopt;
    if (t % n_ != me_) {
      waker_.wake_at(next_frame_slot(t, me_, n_));
      return std::nullopt;
    }
    Message m;
    m.kind = MsgKind::kBcastData;
    m.origin = me_;
    return m;
  }
  void deliver(SlotTime t, const Message&) override {
    if (!informed_) {
      informed_ = true;
      informed_at_ = t;
      waker_.wake_at(next_frame_slot(t, me_, n_));
    }
  }

 private:
  NodeId me_;
  NodeId n_;
  bool informed_ = false;
  SlotTime informed_at_ = 0;
  Waker waker_;
};

struct RoundRobinBroadcastOutcome {
  bool completed = false;
  SlotTime slots = 0;          ///< slot of the last first-reception
  std::uint64_t collisions = 0;  ///< must be 0
  std::vector<SlotTime> informed_at;
};

/// Floods one message from `source`; runs until all nodes are informed (at
/// most D frames) or `max_frames` frames pass.
RoundRobinBroadcastOutcome run_round_robin_broadcast(
    const Graph& g, NodeId source, std::uint64_t max_frames = 0 /*0 = n*/);

}  // namespace radiomc::baselines
