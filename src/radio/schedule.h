#pragma once

// The slot algebra shared by all tree protocols.
//
// The paper composes three slot-level mechanisms:
//
//  * Decay steps: one Decay invocation spans 2*ceil(log2 Delta) transmission
//    opportunities ("phase", §1.4);
//  * data/ack interleaving: "the odd time slots are dedicated to the
//    original protocol and the even ones to acknowledgements" (§3), a x2
//    slow-down;
//  * mod-3 level gating: "a node at level i transmits a message at time
//    slot t only if t = i mod 3" (§2.2), a x3 slow-down that confines
//    collisions to adjacent BFS levels.
//
// PhaseClock makes the nesting explicit so that collection, point-to-point
// and distribution share one timing decomposition, and so the ablation
// experiment (E12) can toggle each factor independently.
//
// Slot layout (innermost varies fastest):
//   t = ((phase * decay_len + decay_step) * R + residue) * A + subslot
// where R = 3 if mod-3 gating is on else 1, and A = 2 if ack subslots are
// on else 1 (subslot 0 = data, subslot 1 = ack).
//
// Within one (phase, decay_step), each residue class gets one data
// opportunity, so every level advances its Decay invocation exactly once
// per decay_step regardless of gating, and an ack subslot immediately
// follows each data subslot as §3 requires.

#include <cstdint>

#include "radio/message.h"

namespace radiomc {

struct SlotStructure {
  std::uint32_t decay_len = 2;  ///< 2 * ceil(log2 Delta), >= 2
  bool ack_subslots = true;     ///< §3 interleave
  bool mod3_gating = true;      ///< §2.2 gating
};

class PhaseClock {
 public:
  explicit PhaseClock(SlotStructure s);

  struct SlotInfo {
    std::uint64_t phase = 0;       ///< Decay-invocation index
    std::uint32_t decay_step = 0;  ///< in [0, decay_len)
    std::uint32_t residue = 0;     ///< 0..2; 0 when gating off
    bool is_ack = false;           ///< ack subslot?
  };

  SlotInfo decode(SlotTime t) const noexcept;

  /// True iff a node at BFS level `level` may transmit *data* in this slot.
  bool level_may_send_data(const SlotInfo& info,
                           std::uint32_t level) const noexcept;

  /// The first slot after `t` in which a node at BFS level `level` may
  /// transmit data (for timed wakes: a sender sleeps until then).
  SlotTime next_data_slot(SlotTime t, std::uint32_t level) const noexcept;

  /// Number of slots spanned by one full phase (one Decay invocation of
  /// every level).
  std::uint64_t slots_per_phase() const noexcept;

  /// The first slot of `phase`.
  SlotTime phase_start(std::uint64_t phase) const noexcept {
    return phase * slots_per_phase();
  }

  const SlotStructure& structure() const noexcept { return s_; }

 private:
  SlotStructure s_;
};

}  // namespace radiomc
