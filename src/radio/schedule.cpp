#include "radio/schedule.h"

#include "support/util.h"

namespace radiomc {

PhaseClock::PhaseClock(SlotStructure s) : s_(s) {
  require(s_.decay_len >= 2, "PhaseClock: decay_len >= 2");
}

PhaseClock::SlotInfo PhaseClock::decode(SlotTime t) const noexcept {
  SlotInfo info;
  std::uint64_t u = t;
  if (s_.ack_subslots) {
    info.is_ack = (u % 2) == 1;
    u /= 2;
  }
  if (s_.mod3_gating) {
    info.residue = static_cast<std::uint32_t>(u % 3);
    u /= 3;
  }
  info.decay_step = static_cast<std::uint32_t>(u % s_.decay_len);
  info.phase = u / s_.decay_len;
  return info;
}

bool PhaseClock::level_may_send_data(const SlotInfo& info,
                                     std::uint32_t level) const noexcept {
  if (info.is_ack) return false;
  if (!s_.mod3_gating) return true;
  return info.residue == level % 3;
}

SlotTime PhaseClock::next_data_slot(SlotTime t,
                                    std::uint32_t level) const noexcept {
  // A level's data slots recur every A*R slots, at offset A*(level mod R)
  // within each run of R residues (see the layout above).
  const SlotTime a = s_.ack_subslots ? 2 : 1;
  const SlotTime r = s_.mod3_gating ? 3 : 1;
  const SlotTime period = a * r;
  const SlotTime offset = a * (level % r);
  const SlotTime from = t + 1;
  return from + (offset + period - from % period) % period;
}

std::uint64_t PhaseClock::slots_per_phase() const noexcept {
  std::uint64_t per = s_.decay_len;
  if (s_.mod3_gating) per *= 3;
  if (s_.ack_subslots) per *= 2;
  return per;
}

}  // namespace radiomc
