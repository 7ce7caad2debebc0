#include "faults/fault_schedule.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/rng_tags.h"

namespace radiomc {

namespace {

// Fixed split tags, one per fault kind, live in support/rng_tags.h
// (registry constants kFaultCrash..kFaultDrop): large so they cannot
// collide with the small per-node tags protocols feed to `master.split(v)`.

/// Pure stateless draw in [0, 1): a splitmix64 finalization of
/// (key, entity, time). Query-order independent by construction.
double unit_draw(std::uint64_t key, std::uint64_t entity,
                 std::uint64_t time) noexcept {
  std::uint64_t s = key ^ (entity + 0x9e3779b97f4a7c15ULL) *
                              0xd1342543de82ef95ULL;
  s ^= (time + 0x2545f4914f6cdd1dULL) * 0xbf58476d1ce4e5b9ULL;
  splitmix64(s);  // advances s; two rounds decorrelate the sparse inputs
  const std::uint64_t z = splitmix64(s);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

std::uint64_t pack_rx(NodeId v, std::uint32_t channel) noexcept {
  return (static_cast<std::uint64_t>(v) << 32) | channel;
}

}  // namespace

FaultSchedule FaultSchedule::for_run(const Graph& g, const FaultPlan& plan,
                                     Rng& master) {
  if (!plan.any()) return {};
  return {g, plan, master.split(rng_tags::kFaultStream).next()};
}

FaultSchedule::FaultSchedule(const Graph& g, const FaultPlan& plan,
                             std::uint64_t seed)
    : plan_(plan) {
  plan_.validate();
  enabled_ = plan_.any();
  if (!enabled_) return;

  // Per-kind keys, derived in a fixed order (Rng::split mutates the
  // parent, so the order is part of the determinism contract).
  Rng root(seed);
  crash_key_ = root.split(rng_tags::kFaultCrash).next();
  recover_key_ = root.split(rng_tags::kFaultRecover).next();
  link_down_key_ = root.split(rng_tags::kFaultLinkDown).next();
  link_up_key_ = root.split(rng_tags::kFaultLinkUp).next();
  jam_key_ = root.split(rng_tags::kFaultJam).next();
  drop_key_ = root.split(rng_tags::kFaultDrop).next();

  if (plan_.crash_rate > 0.0)
    alive_.assign(g.num_nodes(), std::uint8_t{1});

  if (plan_.link_down_rate > 0.0) {
    // Mirror the graph's CSR with undirected edge ids so link_up(u, k) is
    // one array lookup in the engine's hot superposition loop.
    const auto edges = g.edge_list();
    link_state_.assign(edges.size(), std::uint8_t{1});
    // Build-once key -> edge-id index as a sorted vector: deterministic by
    // construction, and binary search beats hashing at these sizes.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> id_of;
    id_of.reserve(edges.size());
    for (std::uint32_t i = 0; i < edges.size(); ++i)
      id_of.emplace_back((static_cast<std::uint64_t>(edges[i].first) << 32) |
                             edges[i].second,
                         i);
    std::sort(id_of.begin(), id_of.end());
    const auto edge_id_of = [&id_of](std::uint64_t key) -> std::uint32_t {
      const auto it = std::lower_bound(
          id_of.begin(), id_of.end(), key,
          [](const auto& e, std::uint64_t k) { return e.first < k; });
      // Every neighbor pair is in the edge list by construction; fail as
      // loudly as the unordered_map::at this replaced if that ever breaks.
      if (it == id_of.end() || it->first != key)
        throw std::out_of_range("FaultSchedule: neighbor pair not an edge");
      return it->second;
    };
    offset_.assign(g.num_nodes() + 1, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      offset_[v + 1] = offset_[v] + g.degree(v);
    edge_id_.resize(offset_[g.num_nodes()]);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nbrs = g.neighbors(u);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const NodeId w = nbrs[k];
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(u, w)) << 32) |
            std::max(u, w);
        edge_id_[offset_[u] + k] = edge_id_of(key);
      }
    }
  }
}

void FaultSchedule::begin_slot(std::uint64_t t) {
  if (!enabled_ || t < plan_.window_start) return;
  if (alive_.empty() && link_state_.empty()) return;
  const std::uint64_t e = (t - plan_.window_start) / plan_.epoch_slots;
  while (next_epoch_ <= e) apply_epoch(next_epoch_++);
}

void FaultSchedule::apply_epoch(std::uint64_t e) {
  // Fault onset is gated by the window; healing (recover / link-up) keeps
  // running after window_end so a bounded burst can heal.
  const bool onset =
      onset_active(plan_.window_start + e * plan_.epoch_slots);
  for (NodeId v = 0; v < alive_.size(); ++v) {
    if (alive_[v]) {
      if (onset && unit_draw(crash_key_, v, e) < plan_.crash_rate) {
        alive_[v] = 0;
        ++crashed_;
        ++stats_.crashes;
      }
    } else if (plan_.recover_rate > 0.0 &&
               unit_draw(recover_key_, v, e) < plan_.recover_rate) {
      alive_[v] = 1;
      --crashed_;
      ++stats_.recoveries;
    }
  }
  for (std::uint32_t i = 0; i < link_state_.size(); ++i) {
    if (link_state_[i]) {
      if (onset && unit_draw(link_down_key_, i, e) < plan_.link_down_rate) {
        link_state_[i] = 0;
        ++stats_.link_downs;
      }
    } else if (plan_.link_up_rate > 0.0 &&
               unit_draw(link_up_key_, i, e) < plan_.link_up_rate) {
      link_state_[i] = 1;
      ++stats_.link_ups;
    }
  }
}

bool FaultSchedule::jammed(std::uint64_t t, NodeId v,
                           std::uint32_t channel) const noexcept {
  return enabled_ && plan_.jam_prob > 0.0 && onset_active(t) &&
         unit_draw(jam_key_, pack_rx(v, channel), t) < plan_.jam_prob;
}

bool FaultSchedule::dropped(std::uint64_t t, NodeId v,
                            std::uint32_t channel) const noexcept {
  return enabled_ && plan_.drop_prob > 0.0 && onset_active(t) &&
         unit_draw(drop_key_, pack_rx(v, channel), t) < plan_.drop_prob;
}

}  // namespace radiomc
