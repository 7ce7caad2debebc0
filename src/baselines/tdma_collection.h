#pragma once

// Deterministic TDMA baseline for collection: a frame of n slots, one per
// node; in its slot a node forwards the head of its buffer to its BFS
// parent. With a single transmitter network-wide per slot there are no
// collisions and no acknowledgements are needed — but the frame costs n
// slots, so k messages take Theta((k + D) n) slots versus the paper's
// O((k + D) log Delta). Experiment E11 measures the crossover.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "baselines/frame.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "radio/station.h"

namespace radiomc::baselines {

/// A node of the TDMA frame: in slot t with t mod n == its id it forwards
/// its buffer's head to its BFS parent. While its buffer holds a message
/// it sleeps until its next frame slot (`wake_at`); an empty buffer sleeps
/// until a child's message arrives.
class TdmaStation final : public SubStation {
 public:
  TdmaStation(NodeId me, NodeId n, NodeId parent, bool is_root)
      : me_(me), n_(n), parent_(parent), is_root_(is_root) {}

  void enqueue(const Message& m) { buffer_.push_back(m); }
  std::size_t delivered() const noexcept { return delivered_; }

  void on_attach(Waker& w) override { waker_ = w; }
  std::optional<Message> poll(SlotTime t) override {
    if (is_root_ || buffer_.empty()) return std::nullopt;
    if (t % n_ != me_) {  // not my frame slot
      waker_.wake_at(next_frame_slot(t, me_, n_));
      return std::nullopt;
    }
    Message m = buffer_.front();
    buffer_.pop_front();  // single global transmitter: reception is certain
    m.sender = me_;
    m.sender_parent = parent_;
    return m;
  }

  void deliver(SlotTime t, const Message& m) override {
    if (m.sender_parent != me_) return;  // not from one of my children
    if (is_root_) {
      ++delivered_;
    } else {
      buffer_.push_back(m);
      waker_.wake_at(next_frame_slot(t, me_, n_));
    }
  }

 private:
  NodeId me_;
  NodeId n_;
  NodeId parent_;
  bool is_root_;
  std::deque<Message> buffer_;
  std::size_t delivered_ = 0;
  Waker waker_;
};

struct TdmaOutcome {
  bool completed = false;
  SlotTime slots = 0;
  std::uint64_t collisions = 0;  ///< must be 0
};

TdmaOutcome run_tdma_collection(const Graph& g, const BfsTree& tree,
                                const std::vector<NodeId>& sources,
                                SlotTime max_slots = 500'000'000);

}  // namespace radiomc::baselines
