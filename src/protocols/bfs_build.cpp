#include "protocols/bfs_build.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

BfsBuildStation::BfsBuildStation(NodeId me, BfsBuildConfig cfg, Rng rng)
    : me_(me), cfg_(cfg), rng_(rng), decay_(cfg.decay_len) {}

void BfsBuildStation::make_root(NodeId root_id) {
  level_ = 0;
  parent_ = kNoNode;
  root_id_ = root_id;
}

void BfsBuildStation::reset() {
  level_ = kNoLevel;
  parent_ = kNoNode;
  root_id_ = kNoNode;
  consistent_ = true;
  decay_.reset();
}

void BfsBuildStation::on_attach(Waker& w) {
  waker_ = &w;
}

std::optional<Message> BfsBuildStation::poll(SlotTime t) {
  if (level_ == kNoLevel || stage_of(t) != level_ ||
      !decay_.transmits_in(decay_.phase_of(t)))
    return std::nullopt;
  Message m;
  m.kind = MsgKind::kBfsAnnounce;
  m.origin = me_;
  m.aux = level_;
  m.payload = root_id_;
  return m;
}

void BfsBuildStation::deliver(SlotTime, const Message& m) {
  if (m.kind != MsgKind::kBfsAnnounce) return;
  if (level_ == kNoLevel) {
    level_ = m.aux + 1;
    parent_ = m.sender;
    root_id_ = static_cast<NodeId>(m.payload);
    // Its own stage, level_, starts after the one it heard level_-1 in.
    if (waker_ != nullptr) waker_->wake_at(level_ * stage_slots());
  } else if (m.aux + 1 < level_) {
    // A neighbor sits at level m.aux <= level_-2: our own level is too
    // large, i.e. we missed an earlier stage. Report it so the setup
    // verification restarts the attempt.
    consistent_ = false;
  }
}

void BfsBuildStation::tick(SlotTime t) {
  decay_.end_slot(rng_);
  if (waker_ == nullptr || level_ == kNoLevel) return;
  // Its next Decay slot, but never before its own stage starts nor after
  // it ends.
  const SlotTime next = std::max<SlotTime>(decay_.next_ungated_slot(t),
                                           level_ * stage_slots());
  if (stage_of(next) == level_) waker_->wake_at(next);
}

BfsBuildOutcome run_bfs_build(const Graph& g, NodeId root,
                              const BfsBuildConfig& cfg, std::uint64_t seed,
                              std::uint64_t max_stages) {
  const NodeId n = g.num_nodes();
  require(root < n, "run_bfs_build: root out of range");
  if (max_stages == 0) max_stages = n + 1;
  const std::uint64_t stage_slots =
      static_cast<std::uint64_t>(cfg.decay_len) * cfg.announce_phases;

  Rng master(seed);
  std::vector<std::unique_ptr<BfsBuildStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(
        std::make_unique<BfsBuildStation>(v, cfg, master.split(v)));
  stations[root]->make_root(root);

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  net.attach(std::move(ptrs));

  for (std::uint64_t stage = 0; stage < max_stages; ++stage) {
    // Levels are contiguous: an empty stage means no node holds level
    // `stage`, so construction is complete.
    bool any_at_stage = false;
    for (NodeId v = 0; v < n && !any_at_stage; ++v)
      any_at_stage = stations[v]->level() == stage;
    if (!any_at_stage) break;
    net.run(stage_slots);
  }

  BfsBuildOutcome out;
  out.slots = net.now();
  std::vector<NodeId> parents(n, kNoNode);
  std::uint64_t joined = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (stations[v]->joined()) {
      ++joined;
      parents[v] = stations[v]->parent();
    }
  }
  out.all_joined = joined == n;
  if (out.all_joined) {
    out.tree = BfsTree::from_parents(root, std::move(parents));
    out.is_true_bfs = is_bfs_tree_of(g, out.tree);
  }
  return out;
}

}  // namespace radiomc
