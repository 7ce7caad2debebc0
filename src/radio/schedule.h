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

/// `n / d` and `n % d` for a divisor fixed at construction, without a
/// hardware divide: q = floor(n * m / 2^64) with m = ceil(2^64 / d). Writing
/// m = (2^64 + e) / d with 0 <= e < d, the product overshoots n / d by
/// e * n / (d * 2^64), which stays below the gap to the next integer,
/// (d - n % d) / d, whenever e * n < 2^64; n <= (2^64 - 1) / d ensures it.
/// Larger dividends (past 2^54 for any divisor up to 1024, far beyond any
/// run) take a divide. d = 1, whose m does not fit, is the identity.
class FixedDivisor {
 public:
  /// `d` >= 1.
  explicit FixedDivisor(std::uint64_t d = 1) noexcept
      : d_(d),
        magic_(d > 1 ? ~std::uint64_t{0} / d + 1 : 0),
        limit_(d > 1 ? ~std::uint64_t{0} / d : 0) {}

  std::uint64_t divisor() const noexcept { return d_; }

  std::uint64_t div(std::uint64_t n) const noexcept {
    if (n > limit_) return d_ == 1 ? n : n / d_;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(n) * magic_) >> 64);
  }
  std::uint64_t mod(std::uint64_t n) const noexcept {
    return n - div(n) * d_;
  }

 private:
  std::uint64_t d_;
  std::uint64_t magic_;  ///< ceil(2^64 / d); 0 for d = 1
  std::uint64_t limit_;  ///< largest dividend the product is exact for
};

struct SlotStructure {
  std::uint32_t decay_len = 2;  ///< 2 * ceil(log2 Delta), >= 2
  bool ack_subslots = true;     ///< §3 interleave
  bool mod3_gating = true;      ///< §2.2 gating
};

/// The decomposition is divide-free: one FixedDivisor splits t into the
/// phase and the offset within it, and the offset (< slots_per_phase) is
/// taken apart by shifts and constant divides.
class PhaseClock {
 public:
  explicit PhaseClock(SlotStructure s);

  struct SlotInfo {
    std::uint64_t phase = 0;       ///< Decay-invocation index
    std::uint32_t decay_step = 0;  ///< in [0, decay_len)
    std::uint32_t residue = 0;     ///< 0..2; 0 when gating off
    bool is_ack = false;           ///< ack subslot?
  };

  SlotInfo decode(SlotTime t) const noexcept {
    SlotInfo info;
    info.phase = phase_.div(t);
    // (decay_step * R + residue) * A + subslot, all below slots_per_phase.
    std::uint64_t u = t - info.phase * phase_.divisor();
    if (s_.ack_subslots) {
      info.is_ack = (u & 1) != 0;
      u >>= 1;
    }
    if (s_.mod3_gating) {
      info.residue = static_cast<std::uint32_t>(u % 3);
      u /= 3;
    }
    info.decay_step = static_cast<std::uint32_t>(u);
    return info;
  }

  /// True iff a node at BFS level `level` may transmit *data* in this slot.
  bool level_may_send_data(const SlotInfo& info,
                           std::uint32_t level) const noexcept {
    if (info.is_ack) return false;
    if (!s_.mod3_gating) return true;
    return info.residue == level % 3;
  }

  /// The first slot after `t` in which a node at BFS level `level` may
  /// transmit data (for timed wakes: a sender sleeps until then).
  SlotTime next_data_slot(SlotTime t, std::uint32_t level) const noexcept {
    // A level's data slots recur every A*R slots, at offset A*(level mod R)
    // within each run of R residues (see the layout above).
    const SlotTime period = data_period_.divisor();
    const SlotTime offset = s_.mod3_gating ? a_ * (level % 3) : 0;
    const SlotTime from = t + 1;
    SlotTime gap = offset + period - data_period_.mod(from);
    if (gap >= period) gap -= period;
    return from + gap;
  }

  /// Number of slots spanned by one full phase (one Decay invocation of
  /// every level).
  std::uint64_t slots_per_phase() const noexcept { return phase_.divisor(); }

  /// The first slot of `phase`.
  SlotTime phase_start(std::uint64_t phase) const noexcept {
    return phase * slots_per_phase();
  }

  const SlotStructure& structure() const noexcept { return s_; }

 private:
  SlotStructure s_;
  SlotTime a_;                ///< A: 2 with ack subslots, else 1
  FixedDivisor phase_;        ///< slots_per_phase
  FixedDivisor data_period_;  ///< A*R, a level's data-slot period
};

}  // namespace radiomc
