#include "baselines/round_robin_broadcast.h"

#include <deque>
#include <memory>

#include "radio/network.h"
#include "support/util.h"

namespace radiomc::baselines {

RoundRobinBroadcastOutcome run_round_robin_broadcast(
    const Graph& g, NodeId source, std::uint64_t max_frames) {
  const NodeId n = g.num_nodes();
  require(source < n, "run_round_robin_broadcast: source out of range");
  if (max_frames == 0) max_frames = n;

  std::vector<std::unique_ptr<RoundRobinStation>> st;
  st.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    st.push_back(std::make_unique<RoundRobinStation>(v, n));
  st[source]->seed();

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : st) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork net(g);
  net.attach(std::move(ptrs));

  RoundRobinBroadcastOutcome out;
  for (std::uint64_t frame = 0; frame < max_frames; ++frame) {
    bool all = true;
    for (auto& s : st) all = all && s->informed();
    if (all) break;
    net.run(n);
  }
  out.informed_at.resize(n);
  out.completed = true;
  for (NodeId v = 0; v < n; ++v) {
    out.completed = out.completed && st[v]->informed();
    out.informed_at[v] = st[v]->informed_at();
    out.slots = std::max(out.slots, st[v]->informed_at());
  }
  out.collisions = net.metrics().collision_events;
  return out;
}

}  // namespace radiomc::baselines
