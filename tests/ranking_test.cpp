// The ranking application (§7): produces an order-preserving renumbering
// 1..n of arbitrary distinct application ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.h"
#include "protocols/dfs_numbering.h"
#include "protocols/ranking.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "radio/trace.h"
#include "support/rng.h"

namespace radiomc {
namespace {

void check_ranks(const std::vector<std::uint64_t>& ids,
                 const std::vector<std::uint32_t>& rank) {
  const auto n = ids.size();
  // Ranks are a permutation of 1..n.
  std::vector<std::uint32_t> sorted = rank;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(sorted[i], static_cast<std::uint32_t>(i + 1));
  // Order-preserving.
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      EXPECT_EQ(ids[a] < ids[b], rank[a] < rank[b]);
}

class RankingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankingSweep, OrderPreservingPermutation) {
  Rng rng(1100 + GetParam());
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(12));
  graphs.push_back(gen::grid(3, 5));
  graphs.push_back(gen::gnp_connected(18, 0.3, rng));
  for (const Graph& g : graphs) {
    const BfsTree tree =
        oracle_bfs_tree(g, static_cast<NodeId>(rng.next_below(g.num_nodes())));
    const PreparationResult prep = run_preparation(g, tree);
    ASSERT_TRUE(prep.ok);
    std::vector<std::uint64_t> ids(g.num_nodes());
    for (auto& id : ids) id = rng.next();
    const RankingOutcome out = run_ranking(g, prep, ids, rng.next());
    ASSERT_TRUE(out.completed);
    check_ranks(ids, out.rank);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingSweep, ::testing::Range(0, 4));

TEST(Ranking, AlreadySortedIds) {
  const Graph g = gen::path(8);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  ASSERT_TRUE(prep.ok);
  std::vector<std::uint64_t> ids(8);
  std::iota(ids.begin(), ids.end(), 100);
  const RankingOutcome out = run_ranking(g, prep, ids, 3);
  ASSERT_TRUE(out.completed);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(out.rank[v], v + 1);
}

TEST(Ranking, ReverseSortedIds) {
  const Graph g = gen::star(7);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  ASSERT_TRUE(prep.ok);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 7; ++i) ids.push_back(1000 - i);
  const RankingOutcome out = run_ranking(g, prep, ids, 4);
  ASSERT_TRUE(out.completed);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(out.rank[v], 7 - v);
}

TEST(Ranking, SingleNode) {
  const Graph g = gen::path(1);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  const RankingOutcome out = run_ranking(g, prep, {42}, 5);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.rank[0], 1u);
}

TEST(Ranking, WorksOnRealSetupOutput) {
  Rng rng(6);
  const Graph g = gen::grid(3, 4);
  const SetupOutcome setup = run_setup(g, rng.next());
  ASSERT_TRUE(setup.ok);
  PreparationResult prep;
  prep.ok = true;
  prep.labels = setup.labels;
  prep.routing = setup.routing;
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (auto& id : ids) id = rng.next();
  const RankingOutcome out = run_ranking(g, prep, ids, rng.next());
  ASSERT_TRUE(out.completed);
  check_ranks(ids, out.rank);
}

/// Records every slot the engine reports done.
class SlotLog final : public SlotHook {
 public:
  void on_slot_done(SlotTime t) override { slots.push_back(t); }
  std::vector<SlotTime> slots;
};

TEST(Ranking, BothStagesReachTheTraceOnOneTimeline) {
  const Graph g = gen::grid(6, 6);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  ASSERT_TRUE(prep.ok);
  Rng rng(7);
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (auto& id : ids) id = rng.next();
  EventRecorder trace;
  SlotLog hook;
  Observers obs;
  obs.trace = &trace;
  obs.slot_hook = &hook;
  const RankingOutcome out = run_ranking(g, prep, ids, 8, 200'000'000, obs);
  ASSERT_TRUE(out.completed);
  check_ranks(ids, out.rank);

  // The deliver stage's events follow the collect stage's, shifted by
  // collect_slots, so the two stages split the trace at that slot.
  std::uint64_t collect_events = 0;
  std::uint64_t deliver_events = 0;
  for (const EventRecorder::Event& e : trace.events()) {
    (e.slot < out.collect_slots ? collect_events : deliver_events) += 1;
    EXPECT_LT(e.slot, out.total_slots());
  }
  EXPECT_GT(collect_events, 0u);
  EXPECT_GT(deliver_events, 0u);
  EXPECT_TRUE(std::is_sorted(
      trace.events().begin(), trace.events().end(),
      [](const auto& a, const auto& b) { return a.slot < b.slot; }));

  // The slot hook sees every slot of both stages once, in order.
  std::vector<SlotTime> want(out.total_slots());
  std::iota(want.begin(), want.end(), SlotTime{1});
  EXPECT_EQ(hook.slots, want);
}

}  // namespace
}  // namespace radiomc
