#pragma once

// Rolling-window flight recorder: the health subsystem's raw-fact ledger.
//
// A FlightRecorder is a TraceSink (the same null-cost, null-guarded hook
// the engine already exposes for tracing), so installing one costs nothing
// on the hot path beyond the virtual calls the engine would make for any
// sink, and installing none keeps the engine byte-identical to an
// uninstrumented run. It accumulates window totals (transmissions,
// receptions, genuine collisions vs jam-killed receptions), per-BFS-level
// collision tallies and two per-neighbor ledgers — who delivered to whom
// this window, and who has ever delivered to whom. The rule engine
// (health/rules.h) reads a window's deltas, then `roll_window()` resets
// them; cumulative ledgers persist.
//
// The per-neighbor ledgers are receiver-major (key is (receiver << 32) |
// sender) so a single ordered-map range scan yields one receiver's
// senders in deterministic order.
//
// Everything here is a pure function of the observed event stream, which
// is itself a pure function of (seed, config) — no clocks, no raw
// randomness, ordered containers only.

#include <cstdint>
#include <map>
#include <vector>

#include "radio/message.h"
#include "radio/trace.h"

namespace radiomc::health {

class FlightRecorder final : public TraceSink {
 public:
  /// `levels[v]` is node v's BFS level (used to bucket collisions per
  /// level); an empty vector disables the per-level tally.
  explicit FlightRecorder(std::vector<std::uint32_t> levels);

  void on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                   const Message& m) override;
  void on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                  const Message& m) override;
  void on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                    std::uint32_t tx_neighbors) override;

  /// Current-window receptions keyed (receiver << 32) | sender.
  const std::map<std::uint64_t, std::uint64_t>& window_pairs()
      const noexcept {
    return pair_win_;
  }
  /// Cumulative reception count per (receiver, sender) pair, same key.
  /// The counts give each pair's historical traffic share, which the
  /// neighbor rule uses to tell "statistically quiet" from "gone silent".
  const std::map<std::uint64_t, std::uint64_t>& pairs_ever()
      const noexcept {
    return pair_ever_;
  }
  /// Current-window genuine collisions per BFS level (empty if levels
  /// were not provided).
  const std::vector<std::uint64_t>& window_level_collisions()
      const noexcept {
    return level_coll_win_;
  }

  std::uint64_t window_collisions() const noexcept { return coll_win_; }
  std::uint64_t window_jams() const noexcept { return jam_win_; }
  std::uint64_t window_deliveries() const noexcept { return rx_win_; }
  std::uint64_t window_transmissions() const noexcept { return tx_win_; }

  /// Cumulative totals (never reset).
  std::uint64_t total_collisions() const noexcept { return coll_total_; }
  std::uint64_t total_jams() const noexcept { return jam_total_; }

  static std::uint64_t pair_key(NodeId receiver, NodeId sender) noexcept {
    return (static_cast<std::uint64_t>(receiver) << 32) | sender;
  }

  /// Resets every window counter; cumulative ledgers persist.
  void roll_window();

 private:
  std::vector<std::uint32_t> levels_;
  std::map<std::uint64_t, std::uint64_t> pair_win_;
  std::map<std::uint64_t, std::uint64_t> pair_ever_;
  std::vector<std::uint64_t> level_coll_win_;
  std::uint64_t tx_win_ = 0;
  std::uint64_t rx_win_ = 0;
  std::uint64_t coll_win_ = 0;
  std::uint64_t jam_win_ = 0;
  std::uint64_t coll_total_ = 0;
  std::uint64_t jam_total_ = 0;
};

}  // namespace radiomc::health
