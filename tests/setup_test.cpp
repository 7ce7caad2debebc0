// The full setup phase (§2 + §5.1): always terminates with a correct BFS
// tree, correct DFS labels, and the elected leader as root, across
// topologies and seeds; the schedule is globally consistent; the outcome
// plugs directly into the data-plane protocols.

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/point_to_point.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

class SetupSweep : public ::testing::TestWithParam<int> {};

TEST_P(SetupSweep, ProducesVerifiedBfsTreeAndLabels) {
  Rng rng(1000 + GetParam());
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(18));
  graphs.push_back(gen::grid(4, 5));
  graphs.push_back(gen::gnp_connected(24, 0.25, rng));
  graphs.push_back(gen::star(12));
  graphs.push_back(gen::complete(10));
  graphs.push_back(gen::unit_disk_connected(20, 0.55, rng));
  for (const Graph& g : graphs) {
    const SetupOutcome out = run_setup(g, rng.next());
    ASSERT_TRUE(out.ok) << "n=" << g.num_nodes()
                        << " attempts=" << out.attempts;
    // The elected leader is the maximum id (max-flooding invariant).
    EXPECT_EQ(out.leader, g.num_nodes() - 1);
    EXPECT_TRUE(is_bfs_tree_of(g, out.tree));
    const DfsLabels oracle = oracle_dfs_labels(out.tree);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(out.labels.number[v], oracle.number[v]);
      EXPECT_EQ(out.labels.max_desc[v], oracle.max_desc[v]);
    }
    EXPECT_GE(out.slots, out.work_slots);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetupSweep, ::testing::Range(0, 4));

TEST(Setup, SingleNode) {
  const Graph g = gen::path(1);
  const SetupOutcome out = run_setup(g, 7);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.leader, 0u);
  EXPECT_EQ(out.tree.depth, 0u);
  EXPECT_EQ(out.labels.number[0], 0u);
}

TEST(Setup, TwoNodes) {
  const Graph g = gen::path(2);
  const SetupOutcome out = run_setup(g, 8);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.leader, 1u);
  EXPECT_EQ(out.tree.level[0], 1u);
}

TEST(Setup, ScheduleLengthsGrowWithAttempt) {
  SetupTuning tuning;
  const SetupSchedule s0 = setup_schedule(50, 6, tuning, 0);
  const SetupSchedule s1 = setup_schedule(50, 6, tuning, 1);
  EXPECT_EQ(s1.le, 2 * s0.le);
  EXPECT_EQ(s1.bv, 2 * s0.bv);
  EXPECT_EQ(s1.gl, 2 * s0.gl);
  EXPECT_EQ(s0.dfs1, s1.dfs1);  // token traversals are deterministic
  EXPECT_GT(s0.attempt_length(), 0u);
}

TEST(Setup, RelayBudgetBoundsAttemptZeroOnly) {
  SetupTuning tuning;
  EXPECT_EQ(setup_schedule(50, 6, tuning, 0).relay, 2u * (6 + 1));
  EXPECT_EQ(setup_schedule(50, 6, tuning, 1).relay, 0u);
  tuning.flood_relay_mult = 0;
  EXPECT_EQ(setup_schedule(50, 6, tuning, 0).relay, 0u);
}

TEST(Setup, AFloodMissRollsIntoTheNextAttemptAndStillSucceeds) {
  // A path of K_{2,2} links: each node hears the next hop from two
  // synchronized Decays, which collide in a third of the phases. Under a
  // relay budget of one unit (ceil(log2 32) + 1 = 6 phases), attempt 0's
  // flood misses a node on this seed; the always-succeed schedule rolls
  // into attempt 1, whose flood relays for its whole epoch.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId layer = 0; layer + 1 < 16; ++layer)
    for (NodeId a = 0; a < 2; ++a)
      for (NodeId b = 0; b < 2; ++b)
        edges.emplace_back(2 * layer + a, 2 * (layer + 1) + b);
  const Graph g(32, edges);
  constexpr std::uint64_t kSeed = 19;

  SetupTuning tiny;
  tiny.flood_relay_mult = 1;
  TelemetryHub hub;
  tiny.telemetry = &hub;
  const SetupOutcome missed = run_setup(g, kSeed, tiny);
  ASSERT_TRUE(missed.ok);
  EXPECT_GE(missed.attempts, 2u);
  EXPECT_TRUE(is_bfs_tree_of(g, missed.tree));
  // Attempt 0 got as far as its flood: the root verified and flooded.
  std::int64_t flood0 = 0;
  for (const telemetry::PhaseSpan& s : hub.timeline.spans())
    if (s.name == "completion_flood" && s.attrs.at(0).second == 0)
      flood0 = s.attrs.at(1).second;
  EXPECT_GT(flood0, 0);

  const SetupOutcome full = run_setup(g, kSeed);
  ASSERT_TRUE(full.ok);
  EXPECT_EQ(full.attempts, 1u);
  EXPECT_TRUE(is_bfs_tree_of(g, full.tree));
}

TEST(Setup, DeterministicForSeed) {
  Rng rng(9);
  const Graph g = gen::gnp_connected(16, 0.3, rng);
  const SetupOutcome a = run_setup(g, 1234);
  const SetupOutcome b = run_setup(g, 1234);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.tree.parent, b.tree.parent);
  EXPECT_EQ(a.labels.number, b.labels.number);
}

TEST(Setup, OutcomeDrivesDataPlaneEndToEnd) {
  // The acid test: run the real setup, then run point-to-point and
  // k-broadcast on its outputs.
  Rng rng(10);
  const Graph g = gen::grid(4, 4);
  const SetupOutcome setup = run_setup(g, rng.next());
  ASSERT_TRUE(setup.ok);

  PreparationResult prep;
  prep.ok = true;
  prep.labels = setup.labels;
  prep.routing = setup.routing;
  std::vector<P2pRequest> reqs;
  for (int i = 0; i < 25; ++i)
    reqs.push_back({static_cast<NodeId>(rng.next_below(16)),
                    static_cast<NodeId>(rng.next_below(16)),
                    static_cast<std::uint64_t>(i)});
  const auto p2p = run_point_to_point(g, prep, reqs,
                                      P2pConfig::for_graph(g), rng.next());
  EXPECT_TRUE(p2p.completed);

  std::vector<NodeId> sources;
  for (int i = 0; i < 10; ++i)
    sources.push_back(static_cast<NodeId>(rng.next_below(16)));
  const auto bc = run_k_broadcast(g, setup.tree, sources,
                                  BroadcastServiceConfig::for_graph(g),
                                  rng.next());
  EXPECT_TRUE(bc.completed);
}

}  // namespace
}  // namespace radiomc
