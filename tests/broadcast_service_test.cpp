// Cross-cutting k-broadcast service tests: throughput shape (§6's
// "a broadcast every O(log Delta log n) slots"), reactive (staggered)
// origination, separate-channel vs time-division cost, and the driver
// helper run_k_broadcast.

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/tree.h"
#include "support/rng.h"
#include "support/stats.h"

namespace radiomc {
namespace {

TEST(KBroadcast, DriverCompletesAndReportsResends) {
  Rng rng(90);
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<NodeId> sources;
  for (int i = 0; i < 20; ++i)
    sources.push_back(static_cast<NodeId>(rng.next_below(16)));
  const auto out = run_k_broadcast(g, tree, sources,
                                   BroadcastServiceConfig::for_graph(g), 91);
  ASSERT_TRUE(out.completed);
  EXPECT_GT(out.slots, 0u);
}

TEST(KBroadcast, ReactiveStaggeredOrigination) {
  // §1.4: the protocols are reactive — messages originated mid-run are
  // handled like any other.
  Rng rng(92);
  const Graph g = gen::grid(3, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastService svc(g, tree, BroadcastServiceConfig::for_graph(g),
                       rng.next());
  int injected = 0;
  while (injected < 15) {
    svc.broadcast(static_cast<NodeId>(rng.next_below(12)), injected);
    ++injected;
    svc.run(500);
  }
  ASSERT_TRUE(svc.run_until_delivered(50'000'000));
  for (NodeId v = 1; v < 12; ++v)
    EXPECT_EQ(svc.distribution(v).delivered_prefix(), 15u);
}

TEST(KBroadcast, MarginalCostPerBroadcastIsSublinearInDepth) {
  // Throughput claim: after the pipeline fills, each extra broadcast costs
  // about one superphase — independent of D. Compare marginal cost on a
  // deep path for k=20 vs k=60: the per-message increment stays flat.
  Rng rng(93);
  const Graph g = gen::path(16);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  auto run_k = [&](std::uint64_t k) {
    std::vector<NodeId> sources(k, 0);
    return run_k_broadcast(g, tree, sources,
                           BroadcastServiceConfig::for_graph(g), rng.next())
        .slots;
  };
  OnlineStats small, large;
  for (int rep = 0; rep < 3; ++rep) {
    small.add(static_cast<double>(run_k(20)));
    large.add(static_cast<double>(run_k(60)));
  }
  const double marginal =
      (large.mean() - small.mean()) / 40.0;  // slots per extra broadcast
  const double sp = static_cast<double>(
      DistributionConfig::for_graph(g).phases_per_superphase *
      DistributionConfig::for_graph(g).decay_len * 3);
  EXPECT_LT(marginal, 3.0 * sp);  // ~1 superphase each, with slack
}

TEST(KBroadcast, SeparateChannelsBeatTimeDivision) {
  // The paper's two concurrency options (§1.4): time multiplexing halves
  // each subprotocol's slot rate, so it should be roughly 2x slower.
  Rng rng(94);
  const Graph g = gen::grid(3, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<NodeId> sources;
  for (int i = 0; i < 15; ++i)
    sources.push_back(static_cast<NodeId>(rng.next_below(12)));
  OnlineStats sep, tdm;
  for (int rep = 0; rep < 3; ++rep) {
    BroadcastServiceConfig c1 = BroadcastServiceConfig::for_graph(g);
    sep.add(static_cast<double>(
        run_k_broadcast(g, tree, sources, c1, rng.next()).slots));
    BroadcastServiceConfig c2 = BroadcastServiceConfig::for_graph(g);
    c2.mode = BroadcastServiceConfig::ChannelMode::kTimeDivision;
    tdm.add(static_cast<double>(
        run_k_broadcast(g, tree, sources, c2, rng.next()).slots));
  }
  EXPECT_GT(tdm.mean(), sep.mean());
  EXPECT_LT(tdm.mean(), 4.0 * sep.mean());
}

TEST(KBroadcast, SingleNodeGraphTrivial) {
  const Graph g = gen::path(1);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const auto out = run_k_broadcast(g, tree, {0, 0, 0},
                                   BroadcastServiceConfig::for_graph(g), 95);
  EXPECT_TRUE(out.completed);
}

}  // namespace
}  // namespace radiomc
