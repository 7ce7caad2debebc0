#pragma once

// The Decay primitive of Bar-Yehuda, Goldreich & Itai [3] (§1.4):
//
//   procedure Decay(m):
//     repeat at most 2*log(Delta) times:
//       transmit m to all neighbors
//       flip coin R in {0, 1}
//     until coin == 0
//
// Properties used throughout the paper:
//   (1) one invocation lasts 2*log(Delta) time slots;
//   (2) if several neighbors of v run Decay concurrently, v receives one of
//       the messages with probability > 1/2.
//
// `DecayProcess` is the per-node state of one invocation plus the per-phase
// bookkeeping every Decay station shares (BGI's flood, leader election,
// BFS construction, distribution and the §3 acknowledged hop): the first
// opportunity of a new phase begins a fresh invocation, a transmitting
// slot is recorded, and its coin is flipped at the slot's end.

#include <cstdint>

#include "graph/graph.h"
#include "radio/schedule.h"
#include "support/rng.h"
#include "support/util.h"

namespace radiomc {

class DecayProcess {
 public:
  /// `length` is the maximum number of transmissions per invocation,
  /// normally decay_length(Delta) = 2*ceil(log2 Delta).
  explicit DecayProcess(std::uint32_t length)
      : length_(length), phase_len_(length) {
    require(length >= 1, "DecayProcess: length >= 1");
  }

  /// Begins a new invocation: the node is live and will transmit at its
  /// next opportunity.
  void start() noexcept {
    live_ = true;
    used_ = 0;
  }

  /// True iff the node should transmit at this opportunity.
  bool wants_transmit() const noexcept { return live_ && used_ < length_; }

  /// Advances the invocation after a transmission: flips the coin and dies
  /// with probability 1/2 (paper: "transmit m; flip coin; until coin = 0").
  void after_transmit(Rng& rng) noexcept {
    ++used_;
    if (rng.coin()) live_ = false;
  }

  /// Aborts the invocation (used when an acknowledgement arrives). It
  /// stays silent until the next phase begins a fresh one.
  void stop() noexcept { live_ = false; }

  /// A transmission opportunity in `phase`: the first one of a new phase
  /// begins a fresh invocation (one invocation per phase). Returns true iff
  /// the node transmits now, and records it for end_slot.
  bool transmits_in(std::uint64_t phase) noexcept {
    if (phase != phase_) {
      phase_ = phase;
      start();
    }
    if (!wants_transmit()) return false;
    transmitted_ = true;
    return true;
  }

  /// True iff an opportunity in `phase` may still transmit: the first one
  /// of a new phase begins a fresh invocation, and within the current
  /// phase the invocation must still be live.
  bool may_transmit_in(std::uint64_t phase) const noexcept {
    return phase != phase_ || wants_transmit();
  }

  /// The first slot after `t` in which a node at BFS level `level` may
  /// transmit under this process: its next data slot if the invocation
  /// may still fire in that slot's phase, else the first data slot of the
  /// following phase. A station with a message to send sleeps until then.
  SlotTime next_transmit_slot(const PhaseClock& clock, SlotTime t,
                              std::uint32_t level) const noexcept {
    const SlotTime next = clock.next_data_slot(t, level);
    const std::uint64_t phase = clock.decode(next).phase;
    if (may_transmit_in(phase)) return next;
    return clock.next_data_slot(clock.phase_start(phase + 1) - 1, level);
  }

  /// For a process whose phases are `length()` consecutive slots with no
  /// gating (BGI's flood, leader election, BFS construction): the phase of
  /// slot `t`, and the next slot if the invocation may still fire in its
  /// phase, else the first slot of the following phase.
  std::uint64_t phase_of(SlotTime t) const noexcept {
    return phase_len_.div(t);
  }
  SlotTime next_ungated_slot(SlotTime t) const noexcept {
    if (may_transmit_in(phase_of(t + 1))) return t + 1;
    return (phase_of(t) + 1) * length_;
  }

  /// End of the slot: flips the coin iff the slot transmitted.
  void end_slot(Rng& rng) noexcept {
    if (!transmitted_) return;
    transmitted_ = false;
    after_transmit(rng);
  }

  /// Back to the initial state: no invocation and no phase begun.
  void reset() noexcept {
    live_ = false;
    transmitted_ = false;
    phase_ = kNoPhase;
  }

  bool live() const noexcept { return live_; }
  std::uint32_t length() const noexcept { return length_; }

 private:
  static constexpr std::uint64_t kNoPhase = static_cast<std::uint64_t>(-1);

  std::uint32_t length_;
  FixedDivisor phase_len_;  ///< length_, for phase_of
  std::uint32_t used_ = 0;
  bool live_ = false;
  bool transmitted_ = false;
  std::uint64_t phase_ = kNoPhase;
};

/// Experiment helper (E1): runs a single synchronized Decay invocation on
/// graph `g` where every node in `transmitters` sends a distinct message,
/// and reports whether `receiver` heard any of them. All transmitters must
/// be neighbors of `receiver` for property (2) to apply, but the function
/// does not require it (multi-hop interference studies use non-neighbors).
///
/// Every station sleeps: listeners never transmit, and a live Decay
/// process transmits in every slot, so it wakes for the next one until its
/// coin ends it. Only live processes are polled.
bool decay_single_trial(const Graph& g, NodeId receiver,
                        const std::vector<NodeId>& transmitters,
                        std::uint32_t decay_len, Rng& rng);

}  // namespace radiomc
