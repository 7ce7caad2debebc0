// E13 — §8 remark (5), the paper's open problem:
//   "Our protocols route messages through a spanning tree causing
//    congestion at the root. Are there efficient communication protocols
//    that avoid this problem?"
//
// We quantify the congestion the remark refers to: per-BFS-level
// transmission counts during a k-message collection on grid8x8. The
// root-adjacent levels carry the entire load, with per-node transmissions
// growing toward the root like k / width(level).
//
// Inherently serial: one run_collection whose ActivityCounter trace sink is
// the measurement; --jobs is accepted for harness uniformity only.

#include <string>
#include <vector>

#include "common.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "radio/trace.h"
#include "support/rng.h"

using namespace radiomc;
using namespace radiomc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  RunTimer timer;
  header("E13: root congestion (the §8(5) open problem, quantified)",
         "tree routing concentrates traffic at low levels: per-node "
         "transmissions grow toward the root");

  Rng rng(0xE13);
  const Graph g = gen::grid(8, 8);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const int k = 128;

  std::vector<Message> init;
  for (int i = 0; i < k; ++i) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = static_cast<NodeId>(1 + rng.next_below(g.num_nodes() - 1));
    m.seq = static_cast<std::uint32_t>(i);
    init.push_back(m);
  }
  ActivityCounter counter(g.num_nodes());
  CollectionConfig ccfg = CollectionConfig::for_graph(g);
  ccfg.trace = &counter;
  run_collection(g, tree, std::move(init), ccfg, rng.next(), 10'000'000);

  // Aggregate by level.
  std::vector<std::uint64_t> level_tx(tree.depth + 1, 0), level_n(tree.depth + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    level_tx[tree.level[v]] += counter.transmissions[v];
    ++level_n[tree.level[v]];
  }
  std::printf("\n   collection of k=%d messages on grid8x8 (D=%u):\n", k,
              tree.depth);
  Table t({"level", "nodes", "tx_total", "tx_per_node"});
  JsonEmitter json("E13",
                   "tree routing concentrates per-node transmissions "
                   "toward the root");
  double tx_lvl1 = 0, tx_deep = 0;
  for (std::uint32_t l = 0; l <= tree.depth; ++l) {
    const double per =
        level_n[l] ? static_cast<double>(level_tx[l]) / level_n[l] : 0;
    if (l == 1) tx_lvl1 = per;
    if (l == tree.depth) tx_deep = per;
    t.row({num(std::uint64_t(l)), num(level_n[l]), num(level_tx[l]),
           num(per, 1)});
    json.row({{"level", l},
              {"nodes", level_n[l]},
              {"tx_total", level_tx[l]},
              {"tx_per_node", per}});
  }
  t.print();
  const bool ok = tx_lvl1 > 4 * (tx_deep + 1);
  verdict(ok,
          "level-1 nodes transmit an order of magnitude more than deep "
          "nodes: the root bottleneck the paper's open problem names");
  std::printf("   (every message crosses level 1; only k/width(l) cross a "
              "deep level)\n");
  json.pass(ok);
  json.set_run_info(opt.jobs, timer.wall_ms(), timer.cpu_ms());
  return 0;
}
