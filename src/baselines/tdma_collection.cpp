#include "baselines/tdma_collection.h"

#include <deque>
#include <memory>

#include "support/util.h"

namespace radiomc::baselines {

TdmaOutcome run_tdma_collection(const Graph& g, const BfsTree& tree,
                                const std::vector<NodeId>& sources,
                                SlotTime max_slots) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "run_tdma_collection: tree/graph mismatch");

  std::vector<std::unique_ptr<TdmaStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(std::make_unique<TdmaStation>(
        v, n, tree.parent[v], v == tree.root));
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = sources[i];
    m.seq = static_cast<std::uint32_t>(i);
    if (sources[i] == tree.root) continue;  // already at the sink
    stations[sources[i]]->enqueue(m);
    ++expected;
  }

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork net(g);
  net.attach(std::move(ptrs));

  TdmaOutcome out;
  StallWatchdog never(0, 0);
  const auto delivered = [&] { return stations[tree.root]->delivered(); };
  out.completed = net.run_until(expected, delivered, max_slots, never) ==
                  RunStatus::kOk;
  out.slots = net.now();
  out.collisions = net.metrics().collision_events;
  return out;
}

}  // namespace radiomc::baselines
