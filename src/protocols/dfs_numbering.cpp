#include "protocols/dfs_numbering.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

// ---------------------------------------------------------------------------
// GraphDfsStation (traversal 1)
// ---------------------------------------------------------------------------

GraphDfsStation::GraphDfsStation(NodeId me, std::vector<NodeId> neighbors)
    : me_(me), neighbors_(std::move(neighbors)) {
  std::sort(neighbors_.begin(), neighbors_.end());
  in_tree_.assign(neighbors_.size(), false);
  heard_.assign(neighbors_.size(), false);
  nbr_level_.assign(neighbors_.size(), 0);
  nbr_bfs_parent_.assign(neighbors_.size(), kNoNode);
}

void GraphDfsStation::set_local(std::uint32_t level, NodeId bfs_parent,
                                bool initiator) {
  level_ = level;
  bfs_parent_ = bfs_parent;
  initiator_ = initiator;
  if (initiator) {
    have_token_ = true;
    visited_ = true;
  }
}

void GraphDfsStation::on_attach(Waker& w) {
  waker_ = &w;
}

void GraphDfsStation::reset() {
  have_token_ = false;
  visited_ = false;
  done_ = false;
  initiator_ = false;
  dfs_parent_ = kNoNode;
  std::fill(in_tree_.begin(), in_tree_.end(), false);
  std::fill(heard_.begin(), heard_.end(), false);
}

std::size_t GraphDfsStation::neighbor_index(NodeId u) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), u);
  return static_cast<std::size_t>(it - neighbors_.begin());
}

std::optional<Message> GraphDfsStation::poll(SlotTime) {
  if (!have_token_ || done_) return std::nullopt;

  // Largest neighbor not yet in the DFS tree (§5.1: "each node sends the
  // token to the largest neighbor not yet in the DFS tree").
  NodeId target = kNoNode;
  for (std::size_t i = neighbors_.size(); i-- > 0;) {
    if (!in_tree_[i]) {
      target = neighbors_[i];
      break;
    }
  }
  if (target == kNoNode) {
    if (initiator_) {
      done_ = true;  // traversal complete; root keeps silent
      return std::nullopt;
    }
    target = dfs_parent_;  // backtrack
  } else {
    in_tree_[neighbor_index(target)] = true;
  }

  Message m;
  m.kind = MsgKind::kDfsToken;
  m.origin = me_;
  m.dest = target;
  m.sender_parent = bfs_parent_;
  m.aux = level_;
  have_token_ = false;
  return m;
}

void GraphDfsStation::deliver(SlotTime, const Message& m) {
  if (m.kind != MsgKind::kDfsToken) return;
  // Every token transmission announces the sender's membership, BFS parent
  // and level; the destination is also now in the tree.
  const std::size_t si = neighbor_index(m.sender);
  if (si < neighbors_.size() && neighbors_[si] == m.sender) {
    in_tree_[si] = true;
    heard_[si] = true;
    nbr_level_[si] = m.aux;
    nbr_bfs_parent_[si] = m.sender_parent;
  }
  const std::size_t di = neighbor_index(m.dest);
  if (di < neighbors_.size() && neighbors_[di] == m.dest)
    in_tree_[di] = true;

  if (m.dest == me_) {
    have_token_ = true;
    if (waker_ != nullptr) waker_->wake();
    if (!visited_) {
      visited_ = true;
      dfs_parent_ = m.sender;
    }
  }
}

std::vector<NodeId> GraphDfsStation::bfs_children() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < neighbors_.size(); ++i)
    if (heard_[i] && nbr_bfs_parent_[i] == me_) out.push_back(neighbors_[i]);
  return out;  // neighbors_ is sorted, so this is ascending
}

bool GraphDfsStation::bfs_levels_consistent() const {
  if (neighbors_.empty()) return level_ == 0;  // isolated node: only n == 1
  std::uint32_t min_nbr = static_cast<std::uint32_t>(-1);
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (!heard_[i]) return false;  // every node transmits during DFS 1
    const std::uint32_t l = nbr_level_[i];
    const std::uint32_t lo = level_ > 0 ? level_ - 1 : 0;
    if (l + 1 < level_ || l > level_ + 1 || l < lo) return false;
    min_nbr = std::min(min_nbr, l);
  }
  if (level_ == 0) return bfs_parent_ == kNoNode;
  return level_ == min_nbr + 1 && bfs_parent_ != kNoNode;
}

// ---------------------------------------------------------------------------
// TreeDfsStation (traversal 2)
// ---------------------------------------------------------------------------

TreeDfsStation::TreeDfsStation(NodeId me) : me_(me) {}

void TreeDfsStation::set_local(NodeId bfs_parent, std::vector<NodeId> children,
                               bool is_root) {
  bfs_parent_ = bfs_parent;
  children_ = std::move(children);
  child_number_.assign(children_.size(), 0);
  child_max_desc_.assign(children_.size(), 0);
  is_root_ = is_root;
  if (is_root_) {
    have_token_ = true;
    numbered_ = true;
    number_ = 0;
    counter_ = 1;
  }
}

void TreeDfsStation::on_attach(Waker& w) {
  waker_ = &w;
}

void TreeDfsStation::reset() {
  child_number_.assign(children_.size(), 0);
  child_max_desc_.assign(children_.size(), 0);
  have_token_ = false;
  numbered_ = false;
  done_ = false;
  is_root_ = false;
  number_ = 0;
  max_desc_ = 0;
  counter_ = 0;
  next_child_ = 0;
}

std::optional<Message> TreeDfsStation::poll(SlotTime) {
  if (!have_token_ || done_) return std::nullopt;

  Message m;
  m.kind = MsgKind::kDfsToken;
  m.origin = me_;
  if (next_child_ < children_.size()) {
    const NodeId c = children_[next_child_];
    child_number_[next_child_] = counter_;
    ++next_child_;
    m.dest = c;
    m.seq = counter_;  // the number the child will take
  } else {
    max_desc_ = counter_ - 1;
    if (is_root_) {
      done_ = true;
      return std::nullopt;
    }
    m.dest = bfs_parent_;
    m.seq = counter_;  // next free number, for the parent to continue with
    done_ = true;      // a non-root is finished once it hands back the token
  }
  have_token_ = false;
  return m;
}

void TreeDfsStation::deliver(SlotTime, const Message& m) {
  if (m.kind != MsgKind::kDfsToken || m.dest != me_) return;
  have_token_ = true;
  if (waker_ != nullptr) waker_->wake();
  if (!numbered_) {
    numbered_ = true;
    number_ = m.seq;
    counter_ = m.seq + 1;
  } else {
    // Backtrack from the child we last sent the token to.
    counter_ = m.seq;
    if (next_child_ > 0) child_max_desc_[next_child_ - 1] = m.seq - 1;
    done_ = false;  // (root only toggles done_ in poll)
  }
}

// ---------------------------------------------------------------------------
// Standalone preparation driver
// ---------------------------------------------------------------------------

PreparationResult run_preparation(const Graph& g, const BfsTree& tree) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "run_preparation: tree/graph mismatch");
  PreparationResult out;

  // Traversal 1: DFS of the graph.
  std::vector<std::unique_ptr<GraphDfsStation>> dfs1;
  dfs1.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    auto nb = g.neighbors(v);
    dfs1.push_back(std::make_unique<GraphDfsStation>(
        v, std::vector<NodeId>(nb.begin(), nb.end())));
    dfs1.back()->set_local(tree.level[v], tree.parent[v], v == tree.root);
  }
  {
    std::deque<SingleStation> adapters;
    std::vector<Station*> ptrs;
    for (auto& s : dfs1) adapters.emplace_back(*s);
    for (auto& a : adapters) ptrs.push_back(&a);
    RadioNetwork net(g);
    net.attach(std::move(ptrs));
    net.run(2 * static_cast<SlotTime>(n) + 2);
    out.slots += net.now();
    out.collisions += net.metrics().collision_events;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!dfs1[v]->visited() || !dfs1[v]->bfs_levels_consistent()) return out;
  }

  // Traversal 2: DFS of the BFS tree, assigning preorder numbers. Children
  // lists come from what traversal 1 taught each node.
  std::vector<std::unique_ptr<TreeDfsStation>> dfs2;
  dfs2.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    dfs2.push_back(std::make_unique<TreeDfsStation>(v));
    dfs2.back()->set_local(tree.parent[v], dfs1[v]->bfs_children(),
                           v == tree.root);
  }
  {
    std::deque<SingleStation> adapters;
    std::vector<Station*> ptrs;
    for (auto& s : dfs2) adapters.emplace_back(*s);
    for (auto& a : adapters) ptrs.push_back(&a);
    RadioNetwork net(g);
    net.attach(std::move(ptrs));
    net.run(2 * static_cast<SlotTime>(n) + 2);
    out.slots += net.now();
    out.collisions += net.metrics().collision_events;
  }
  for (NodeId v = 0; v < n; ++v)
    if (!dfs2[v]->numbered()) return out;

  out.labels.number.resize(n);
  out.labels.max_desc.resize(n);
  out.routing.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.labels.number[v] = dfs2[v]->number();
    out.labels.max_desc[v] = dfs2[v]->max_desc();
    RoutingInfo& r = out.routing[v];
    r.parent = tree.parent[v];
    r.level = tree.level[v];
    r.number = dfs2[v]->number();
    r.max_desc = dfs2[v]->max_desc();
    r.children = dfs2[v]->children();
    r.child_number = dfs2[v]->child_number();
    r.child_max_desc = dfs2[v]->child_max_desc();
  }
  out.ok = true;
  return out;
}

}  // namespace radiomc
