#include "radio/schedule.h"

#include "support/util.h"

namespace radiomc {

PhaseClock::PhaseClock(SlotStructure s)
    : s_(s),
      a_(s.ack_subslots ? 2 : 1),
      phase_(std::uint64_t{s.decay_len} * a_ * (s.mod3_gating ? 3 : 1)),
      data_period_(a_ * (s.mod3_gating ? 3 : 1)) {
  require(s_.decay_len >= 2, "PhaseClock: decay_len >= 2");
}

}  // namespace radiomc
