// A network-wide news feed — §6's k-broadcast: any station can publish;
// every station must see every publication, in a consistent order.
//
// The k-broadcast service funnels publications to the root (collection)
// and pipelines them down the BFS tree (distribution); sequence numbers,
// gap-NACKs and the checkpoint window make delivery exactly-once-in-order
// at every station. The example publishes from random stations while time
// advances, then prints each station's delivered prefix and the pipeline
// economics (slots per publication once the pipe is full).

#include <cstdio>
#include <vector>

#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/setup.h"
#include "support/rng.h"

using namespace radiomc;

int main() {
  Rng rng(11);
  const Graph g = gen::gnp_connected(36, 0.12, rng);
  std::printf("mesh of %u stations, %zu links\n", g.num_nodes(),
              g.num_edges());

  const SetupOutcome setup = run_setup(g, 21);
  if (!setup.ok) return 1;

  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.distribution.window = 16;  // bounded sequence numbers on the wire
  BroadcastService feed(g, setup.tree, cfg, rng.next());

  // Publish 30 items from random stations, staggered in time (the service
  // is reactive: items originate while earlier ones are still in flight).
  const int items = 30;
  for (int i = 0; i < items; ++i) {
    const NodeId publisher =
        static_cast<NodeId>(rng.next_below(g.num_nodes()));
    feed.broadcast(publisher, 0xAA00 + i);
    feed.run(400);  // time passes between posts
  }
  if (!feed.run_until_delivered(100'000'000)) {
    std::printf("feed failed to converge\n");
    return 1;
  }

  std::printf("all %d publications delivered everywhere after %llu slots\n",
              items, static_cast<unsigned long long>(feed.now()));
  const auto& root_dist = feed.distribution(setup.tree.root);
  std::printf("repair traffic: %llu resends, %llu idle rebroadcasts\n",
              static_cast<unsigned long long>(root_dist.root_resends()),
              static_cast<unsigned long long>(
                  root_dist.root_idle_rebroadcasts()));

  // Every station saw the same ordered feed.
  bool consistent = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == setup.tree.root) continue;
    const auto& log = feed.distribution(v).delivery_log();
    consistent = consistent && log.size() == items;
    for (std::size_t i = 0; i < log.size(); ++i)
      consistent = consistent && log[i].second == i;
  }
  std::printf("feed order consistent at every station: %s\n",
              consistent ? "yes" : "NO");

  const double sp = static_cast<double>(
      cfg.distribution.phases_per_superphase * cfg.distribution.decay_len * 3);
  std::printf("pipeline economics: superphase = %.0f slots "
              "(one publication per superphase at steady state)\n",
              sp);
  return consistent ? 0 : 1;
}
