#pragma once

// The global id-indexed frame of the deterministic baselines: node `id` of
// n owns every slot t with t mod n == id.

#include "graph/graph.h"
#include "radio/message.h"

namespace radiomc::baselines {

/// The first slot after `t` that node `id` owns in an n-slot frame: where
/// a frame station with something to send sleeps until.
inline SlotTime next_frame_slot(SlotTime t, NodeId id, NodeId n) noexcept {
  return t + 1 + (id + n - (t + 1) % n) % n;
}

}  // namespace radiomc::baselines
