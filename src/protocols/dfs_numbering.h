#pragma once

// The preparation step of §5.1: two collision-free token-DFS traversals.
//
// Traversal 1 (GraphDfsStation) walks a DFS of the *graph*: only the token
// holder transmits, so every transmission is heard by all of the sender's
// neighbors; the token is passed to the largest neighbor not yet in the
// DFS tree, or back to the DFS parent. Each token message carries the
// sender's id, BFS-parent id and BFS level, so after the traversal every
// node knows, for each neighbor, whether it is a BFS child — and can check
// its own BFS level against its neighborhood (the always-succeed
// verification hook of §2; levels produced by the staged construction can
// only be too large, and a too-large level shows up as a neighbor at level
// <= own-2 or as own != 1 + min neighbor level).
//
// Traversal 2 (TreeDfsStation) walks the *BFS tree* and assigns preorder
// DFS numbers; the token carries the running counter. Afterwards each node
// knows its own number, the number and maximum-descendant number of each
// BFS child — O(deg(v) log n) bits, exactly the §5.1 memory bound — which
// is everything point-to-point routing needs.
//
// Both traversals take 2(n-1) slots (one token hop per slot) and are
// deterministic: tests assert the engine observed zero collisions.

#include <cstdint>
#include <optional>
#include <vector>

#include "protocols/tree.h"
#include "radio/station.h"

namespace radiomc {

/// Local routing state of one node after preparation (§5.1): everything a
/// point-to-point station is allowed to know.
struct RoutingInfo {
  NodeId parent = kNoNode;
  std::uint32_t level = 0;
  std::uint32_t number = 0;    ///< own DFS address
  std::uint32_t max_desc = 0;  ///< max DFS address in own subtree
  std::vector<NodeId> children;
  std::vector<std::uint32_t> child_number;
  std::vector<std::uint32_t> child_max_desc;

  /// True iff `addr` lies in this node's subtree.
  bool subtree_contains(std::uint32_t addr) const noexcept {
    return number <= addr && addr <= max_desc;
  }
  /// The child whose subtree contains `addr`, or kNoNode.
  NodeId child_towards(std::uint32_t addr) const noexcept {
    for (std::size_t i = 0; i < children.size(); ++i)
      if (child_number[i] <= addr && addr <= child_max_desc[i])
        return children[i];
    return kNoNode;
  }
};

class GraphDfsStation final : public SubStation {
 public:
  /// `neighbors` is the node's local neighborhood (known per the model).
  GraphDfsStation(NodeId me, std::vector<NodeId> neighbors);

  /// Supplies the node's BFS position (from the construction step) and
  /// whether it initiates the traversal (the root does). It does not wake
  /// the station: call it before attach or from the poll that follows.
  void set_local(std::uint32_t level, NodeId bfs_parent, bool initiator);
  void reset();

  /// Keeps the Waker: only the token holder acts, so the station
  /// sleeps until the token arrives.
  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;

  bool visited() const noexcept { return visited_; }
  bool done() const noexcept { return done_; }
  /// Neighbors that announced this node as their BFS parent, ascending.
  std::vector<NodeId> bfs_children() const;
  /// §2 verification: known level of every neighbor is within +-1 of ours
  /// and (non-root) our level is 1 + min neighbor level; all neighbors
  /// must have been heard.
  bool bfs_levels_consistent() const;

 private:
  std::size_t neighbor_index(NodeId u) const;

  NodeId me_;
  std::vector<NodeId> neighbors_;  // sorted ascending
  std::uint32_t level_ = 0;
  NodeId bfs_parent_ = kNoNode;
  bool initiator_ = false;

  bool have_token_ = false;
  bool visited_ = false;
  bool done_ = false;
  NodeId dfs_parent_ = kNoNode;
  std::vector<bool> in_tree_;                   // per neighbor
  std::vector<bool> heard_;                     // per neighbor
  std::vector<std::uint32_t> nbr_level_;        // per neighbor
  std::vector<NodeId> nbr_bfs_parent_;          // per neighbor
  Waker* waker_ = nullptr;
};

class TreeDfsStation final : public SubStation {
 public:
  explicit TreeDfsStation(NodeId me);

  /// `children` must be the node's BFS children in ascending order (the
  /// order learned from traversal 1). Like GraphDfsStation::set_local, it
  /// does not wake the station.
  void set_local(NodeId bfs_parent, std::vector<NodeId> children,
                 bool is_root);
  void reset();

  /// Keeps the Waker: only the token holder acts, so the station
  /// sleeps until the token arrives.
  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;

  bool numbered() const noexcept { return numbered_; }
  bool done() const noexcept { return done_; }
  std::uint32_t number() const noexcept { return number_; }
  std::uint32_t max_desc() const noexcept { return max_desc_; }
  const std::vector<NodeId>& children() const noexcept { return children_; }
  const std::vector<std::uint32_t>& child_number() const noexcept {
    return child_number_;
  }
  const std::vector<std::uint32_t>& child_max_desc() const noexcept {
    return child_max_desc_;
  }

 private:
  NodeId me_;
  NodeId bfs_parent_ = kNoNode;
  bool is_root_ = false;
  std::vector<NodeId> children_;
  std::vector<std::uint32_t> child_number_;
  std::vector<std::uint32_t> child_max_desc_;

  bool have_token_ = false;
  bool numbered_ = false;
  bool done_ = false;
  std::uint32_t number_ = 0;
  std::uint32_t max_desc_ = 0;
  std::uint32_t counter_ = 0;
  std::size_t next_child_ = 0;
  Waker* waker_ = nullptr;
};

/// Standalone preparation driver: runs both traversals on fresh networks
/// (given an already-built BFS tree) and assembles the per-node routing
/// tables. `ok` is true iff both traversals completed and the BFS levels
/// passed the neighborhood consistency check.
struct PreparationResult {
  bool ok = false;
  SlotTime slots = 0;
  std::uint64_t collisions = 0;  ///< must be 0: the traversals are collision-free
  DfsLabels labels;
  std::vector<RoutingInfo> routing;
};
PreparationResult run_preparation(const Graph& g, const BfsTree& tree);

}  // namespace radiomc
