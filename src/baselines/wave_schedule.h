#pragma once

// Centralized broadcast scheduling in the spirit of Chlamtac & Weinstein
// [8] ("the wave expansion approach"): given full knowledge of the
// topology, compute a collision-free schedule — a sequence of transmitter
// sets — that spreads one message from a source to all nodes, and execute
// it on the radio engine to verify collision-freedom at every receiver
// that the round intends to cover.
//
// The greedy set-selection per round delivers the O(D log^2 n) flavor of
// [8]; the paper cites it as the centralized/deterministic comparison
// point for the randomized protocols (§1.3), and Alon et al. [1] show
// Omega(log^2 n) rounds are necessary for D = 2, so the shape is tight.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "radio/message.h"
#include "radio/station.h"

namespace radiomc::baselines {

/// A node replaying a schedule: it transmits in slot t iff my_slots[t].
/// It sleeps between its transmit slots: each tick arms the next one.
class ScriptedStation final : public SubStation {
 public:
  ScriptedStation(NodeId me, const std::vector<bool>& my_slots) : me_(me) {
    for (SlotTime t = 0; t < my_slots.size(); ++t)
      if (my_slots[t]) tx_slots_.push_back(t);
  }

  void on_attach(Waker& w) override { waker_ = w; }
  std::optional<Message> poll(SlotTime t) override {
    if (!std::binary_search(tx_slots_.begin(), tx_slots_.end(), t))
      return std::nullopt;
    Message m;
    m.kind = MsgKind::kBcastData;
    m.origin = me_;
    return m;
  }
  void deliver(SlotTime, const Message&) override { informed_ = true; }
  void tick(SlotTime t) override {
    const auto next = std::upper_bound(tx_slots_.begin(), tx_slots_.end(), t);
    if (next != tx_slots_.end()) waker_.wake_at(*next);
  }
  bool informed() const noexcept { return informed_; }
  void force_informed() noexcept { informed_ = true; }

 private:
  NodeId me_;
  std::vector<SlotTime> tx_slots_;  ///< ascending
  bool informed_ = false;
  Waker waker_;
};

struct WaveSchedule {
  NodeId source = 0;
  /// rounds[t] = the set of nodes transmitting in slot t.
  std::vector<std::vector<NodeId>> rounds;
};

/// Computes a schedule by greedy maximum-new-coverage transmitter
/// selection per round (each round informs every uninformed node with
/// exactly one selected transmitting neighbor).
WaveSchedule compute_wave_schedule(const Graph& g, NodeId source);

struct WaveOutcome {
  bool all_informed = false;
  SlotTime slots = 0;
};

/// Replays the schedule on the radio engine and checks that it informs
/// every node (scheduled transmissions are deterministic, so this is a
/// validation of the schedule, not a probabilistic run).
WaveOutcome execute_wave_schedule(const Graph& g, const WaveSchedule& s);

}  // namespace radiomc::baselines
