#include "health/recorder.h"

#include <algorithm>

namespace radiomc::health {

FlightRecorder::FlightRecorder(std::vector<std::uint32_t> levels)
    : levels_(std::move(levels)) {
  if (!levels_.empty()) {
    const std::uint32_t depth =
        *std::max_element(levels_.begin(), levels_.end());
    level_coll_win_.assign(depth + 1, 0);
  }
}

void FlightRecorder::on_transmit(SlotTime, NodeId, ChannelId,
                                 const Message&) {
  ++tx_win_;
}

void FlightRecorder::on_deliver(SlotTime, NodeId receiver, ChannelId,
                                const Message& m) {
  ++rx_win_;
  const std::uint64_t key = pair_key(receiver, m.sender);
  ++pair_win_[key];
  ++pair_ever_[key];
}

void FlightRecorder::on_collision(SlotTime, NodeId receiver, ChannelId,
                                  std::uint32_t tx_neighbors) {
  // Same split as ActivityCounter: one transmitting neighbor means fault
  // injection jammed an otherwise-clean reception; only >= 2 is a genuine
  // collision (lumping them would inflate the hotspot rule under jamming).
  if (tx_neighbors >= 2) {
    ++coll_win_;
    ++coll_total_;
    if (!level_coll_win_.empty() && receiver < levels_.size())
      ++level_coll_win_[levels_[receiver]];
  } else {
    ++jam_win_;
    ++jam_total_;
  }
}

void FlightRecorder::roll_window() {
  pair_win_.clear();
  std::fill(level_coll_win_.begin(), level_coll_win_.end(), 0);
  tx_win_ = rx_win_ = coll_win_ = jam_win_ = 0;
}

}  // namespace radiomc::health
