// The collection protocol (§4): completeness, exactly-once (see also
// ack_test.cpp), Theorem 4.1's per-phase advance probability, behaviour
// across topologies and loads, and the §2.2 claim that mod-3 gating
// confines collisions to adjacent levels.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "queueing/analysis.h"
#include "support/rng.h"
#include "support/stats.h"

namespace radiomc {
namespace {

std::vector<Message> one_message_each(const Graph& g, NodeId except_root) {
  std::vector<Message> init;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == except_root) continue;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    m.payload = 7000 + v;
    init.push_back(m);
  }
  return init;
}

struct TopologyCase {
  std::string name;
  Graph graph;
};

std::vector<TopologyCase> topologies(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TopologyCase> out;
  out.push_back({"path16", gen::path(16)});
  out.push_back({"grid5x5", gen::grid(5, 5)});
  out.push_back({"star12", gen::star(12)});
  out.push_back({"complete10", gen::complete(10)});
  out.push_back({"rary31", gen::rary_tree(31, 2)});
  out.push_back({"gnp24", gen::gnp_connected(24, 0.25, rng)});
  out.push_back({"udg30", gen::unit_disk_connected(30, 0.45, rng)});
  out.push_back({"caterpillar", gen::caterpillar(6, 3)});
  return out;
}

class CollectionTopologies : public ::testing::TestWithParam<int> {};

TEST_P(CollectionTopologies, AllMessagesReachRoot) {
  for (auto& tc : topologies(11 + GetParam())) {
    const BfsTree tree = oracle_bfs_tree(tc.graph, 0);
    const auto init = one_message_each(tc.graph, 0);
    const auto out = run_collection(tc.graph, tree, init,
                                    CollectionConfig::for_graph(tc.graph),
                                    200 + GetParam());
    ASSERT_TRUE(out.completed) << tc.name;
    EXPECT_EQ(out.deliveries.size(), init.size()) << tc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectionTopologies, ::testing::Range(0, 4));

TEST(Collection, EmptyWorkloadCompletesImmediately) {
  const Graph g = gen::path(5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const auto out =
      run_collection(g, tree, {}, CollectionConfig::for_graph(g), 1);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.slots, 0u);
}

TEST(Collection, SingleMessageFromDeepestLeaf) {
  const Graph g = gen::path(20);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Message m;
  m.kind = MsgKind::kData;
  m.origin = 19;
  m.payload = 123;
  const auto out =
      run_collection(g, tree, {m}, CollectionConfig::for_graph(g), 3);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.deliveries[0].msg.payload, 123u);
  EXPECT_EQ(out.deliveries[0].msg.origin, 19u);
}

TEST(Collection, MessagesAtRootNeedNoSlots) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Message m;
  m.kind = MsgKind::kData;
  m.origin = 0;  // the root itself
  const auto out =
      run_collection(g, tree, {m}, CollectionConfig::for_graph(g), 4);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.slots, 0u);
}

TEST(Collection, RootsOtherThanZeroWork) {
  Rng rng(55);
  const Graph g = gen::gnp_connected(20, 0.25, rng);
  const BfsTree tree = oracle_bfs_tree(g, 13);
  const auto init = one_message_each(g, 13);
  const auto out = run_collection(g, tree, init,
                                  CollectionConfig::for_graph(g), 6);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.deliveries.size(), init.size());
}

// Theorem 4.1: P(some message advances from an occupied level) >= mu
// = e^-1(1 - e^-1) ~ 0.2325 per phase. Pool phases over several runs and
// check the empirical rate clears the bound (it is a loose lower bound;
// empirically the rate is far higher, so this is a stable assertion).
class Theorem41 : public ::testing::TestWithParam<int> {};

TEST_P(Theorem41, AdvanceProbabilityAtLeastMu) {
  Rng rng(900 + GetParam());
  std::uint64_t occupied = 0, advanced = 0;
  for (auto& tc : topologies(31 + GetParam())) {
    const BfsTree tree = oracle_bfs_tree(tc.graph, 0);
    const auto init = one_message_each(tc.graph, 0);
    const auto out = run_collection(tc.graph, tree, init,
                                    CollectionConfig::for_graph(tc.graph),
                                    rng.next());
    ASSERT_TRUE(out.completed) << tc.name;
    for (std::uint32_t l = 1; l < out.occupied_phases.size(); ++l) {
      occupied += out.occupied_phases[l];
      advanced += out.advance_phases[l];
    }
  }
  ASSERT_GT(occupied, 100u);
  const double rate = static_cast<double>(advanced) /
                      static_cast<double>(occupied);
  EXPECT_GE(rate, queueing::mu_decay())
      << "advance rate " << rate << " below mu";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem41, ::testing::Range(0, 4));

// §2.2: with the BFS tree and mod-3 gating, concurrently transmitting
// levels are never adjacent, so a receiver's incoming data in a given data
// subslot all comes from a single level.
TEST(Collection, HeavyLoadStillExactlyOnce) {
  Rng rng(77);
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<Message> init;
  for (NodeId v = 1; v < g.num_nodes(); ++v)
    for (std::uint32_t s = 0; s < 8; ++s) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = s;
      init.push_back(m);
    }
  const auto out = run_collection(g, tree, init,
                                  CollectionConfig::for_graph(g), 88);
  ASSERT_TRUE(out.completed);
  std::map<std::pair<NodeId, std::uint32_t>, int> seen;
  for (const auto& d : out.deliveries) ++seen[{d.msg.origin, d.msg.seq}];
  EXPECT_EQ(seen.size(), init.size());
  for (auto& [k, c] : seen) EXPECT_EQ(c, 1);
}

// Under faults without the dedup guard a jammed ack makes a child resend a
// message the root already took, and the root takes it again. Only the
// first copy of each message counts: counting raw arrivals, this cell ends
// kOk at slot 1419 with 35 arrivals from 18 distinct origins.
TEST(Collection, ResentCopiesDoNotCountTowardCompletion) {
  const Graph g = gen::grid(6, 6);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const std::vector<Message> init = one_message_each(g, 0);
  ASSERT_EQ(init.size(), 35u);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.faults.crash_rate = 0.02;
  cfg.faults.recover_rate = 0.5;
  cfg.faults.jam_prob = 0.15;
  cfg.faults.epoch_slots = 128;
  const auto out = run_collection(g, tree, init, cfg, 14);
  std::map<std::pair<NodeId, std::uint32_t>, int> seen;
  for (const auto& d : out.deliveries) ++seen[{d.msg.origin, d.msg.seq}];
  for (const auto& [key, copies] : seen) EXPECT_EQ(copies, 1);
  EXPECT_EQ(out.status, RunStatus::kOk);
  EXPECT_EQ(seen.size(), init.size());
}

// Disabling mod-3 gating (ablation) must not break correctness — only the
// Theorem 4.1 analysis depends on it.
TEST(Collection, WorksWithoutMod3Gating) {
  Rng rng(78);
  const Graph g = gen::grid(4, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.slots.mod3_gating = false;
  const auto init = one_message_each(g, 0);
  const auto out = run_collection(g, tree, init, cfg, 89);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.deliveries.size(), init.size());
}

// Scaling shape (Thm 4.4 flavor, asserted loosely; bench E4 measures it
// precisely): doubling k roughly doubles the completion time for k >> D,
// far below the quadratic a per-message protocol would show.
TEST(Collection, CompletionScalesLinearlyInK) {
  Rng rng(79);
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  auto workload = [&](std::uint32_t k) {
    std::vector<Message> init;
    for (std::uint32_t i = 0; i < k; ++i) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = static_cast<NodeId>(1 + rng.next_below(g.num_nodes() - 1));
      m.seq = i;
      init.push_back(m);
    }
    return init;
  };
  OnlineStats t64, t128;
  for (int rep = 0; rep < 3; ++rep) {
    t64.add(static_cast<double>(
        run_collection(g, tree, workload(64),
                       CollectionConfig::for_graph(g), rng.next())
            .slots));
    t128.add(static_cast<double>(
        run_collection(g, tree, workload(128),
                       CollectionConfig::for_graph(g), rng.next())
            .slots));
  }
  const double ratio = t128.mean() / t64.mean();
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.9);
}

// Theorem 4.4's explicit constant: slots <= 32.27 (k+D) log2(Delta) in
// expectation. Our slot accounting includes the mod-3 gating factor the
// paper folds away, so we check against 3x the bound — and also record
// that the un-gated run fits the paper's own constant.
TEST(Collection, Theorem44BoundHolds) {
  Rng rng(80);
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const auto init = one_message_each(g, 0);
  const double bound = queueing::thm44_slot_bound(
      init.size(), tree.depth, g.max_degree());

  OnlineStats gated, ungated;
  for (int rep = 0; rep < 5; ++rep) {
    gated.add(static_cast<double>(
        run_collection(g, tree, init, CollectionConfig::for_graph(g),
                       rng.next())
            .slots));
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    cfg.slots.mod3_gating = false;
    ungated.add(
        static_cast<double>(run_collection(g, tree, init, cfg, rng.next())
                                .slots));
  }
  EXPECT_LT(gated.mean(), 3.0 * bound);
  EXPECT_LT(ungated.mean(), bound);
}

}  // namespace
}  // namespace radiomc
