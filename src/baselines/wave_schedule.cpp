#include "baselines/wave_schedule.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "radio/network.h"
#include "support/util.h"

namespace radiomc::baselines {

WaveSchedule compute_wave_schedule(const Graph& g, NodeId source) {
  const NodeId n = g.num_nodes();
  require(source < n, "compute_wave_schedule: source out of range");
  WaveSchedule sched;
  sched.source = source;

  std::vector<bool> informed(n, false);
  informed[source] = true;
  NodeId informed_count = 1;

  while (informed_count < n) {
    // Greedy round: repeatedly add the informed transmitter that newly
    // covers the most uninformed nodes, where "covers" means the node ends
    // the round with exactly one transmitting neighbor. Adding a
    // transmitter can uncover nodes (second transmitting neighbor); the
    // greedy gain accounts for both directions.
    std::vector<std::uint32_t> tx_nbrs(n, 0);  // selected transmitting nbrs
    std::vector<NodeId> round;
    std::vector<bool> selected(n, false);

    for (;;) {
      NodeId best = kNoNode;
      std::int64_t best_gain = 0;
      for (NodeId u = 0; u < n; ++u) {
        if (!informed[u] || selected[u]) continue;
        std::int64_t gain = 0;
        for (NodeId v : g.neighbors(u)) {
          if (informed[v]) continue;
          if (tx_nbrs[v] == 0) ++gain;        // newly covered
          else if (tx_nbrs[v] == 1) --gain;   // collides an existing cover
        }
        if (gain > best_gain) {
          best_gain = gain;
          best = u;
        }
      }
      if (best == kNoNode) break;
      selected[best] = true;
      round.push_back(best);
      for (NodeId v : g.neighbors(best))
        if (!informed[v]) ++tx_nbrs[v];
    }
    require(!round.empty(),
            "compute_wave_schedule: disconnected graph or internal error");

    for (NodeId v = 0; v < n; ++v) {
      if (!informed[v] && tx_nbrs[v] == 1) {
        informed[v] = true;
        ++informed_count;
      }
    }
    sched.rounds.push_back(std::move(round));
  }
  return sched;
}

WaveOutcome execute_wave_schedule(const Graph& g, const WaveSchedule& s) {
  const NodeId n = g.num_nodes();
  const std::size_t rounds = s.rounds.size();
  std::vector<std::vector<bool>> slots(n, std::vector<bool>(rounds, false));
  for (std::size_t t = 0; t < rounds; ++t)
    for (NodeId u : s.rounds[t]) slots[u][t] = true;

  std::vector<std::unique_ptr<ScriptedStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(std::make_unique<ScriptedStation>(v, slots[v]));
  stations[s.source]->force_informed();

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& st : stations) adapters.emplace_back(*st);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork net(g);
  net.attach(std::move(ptrs));
  net.run(rounds);

  WaveOutcome out;
  out.slots = net.now();
  out.all_informed =
      std::all_of(stations.begin(), stations.end(),
                  [](const auto& st) { return st->informed(); });
  return out;
}

}  // namespace radiomc::baselines
