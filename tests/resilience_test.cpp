// Protocol resilience under sustained and bursty fault injection: every
// run must terminate with a structured status (ok or degraded) — never
// hang (the ctest TIMEOUT enforces that side) — and bounded bursts that
// heal must let the protocols finish the job.

#include <gtest/gtest.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/point_to_point.h"
#include "protocols/ranking.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// The issue's headline fault regime: crashes at 5% per epoch (with
/// recovery so the network is not eventually all-dead) plus 20% jamming.
FaultPlan harsh_plan() {
  FaultPlan plan;
  plan.crash_rate = 0.05;
  plan.recover_rate = 0.5;
  plan.jam_prob = 0.2;
  plan.epoch_slots = 256;
  return plan;
}

std::vector<Message> one_message_each(const Graph& g, NodeId except) {
  std::vector<Message> init;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == except) continue;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    init.push_back(m);
  }
  return init;
}

TEST(Resilience, CollectionTerminatesUnderCrashAndJam) {
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    cfg.faults = harsh_plan();
    cfg.stall_slots = 100'000;
    const auto out =
        run_collection(g, tree, one_message_each(g, 0), cfg, seed);
    // Structured outcome, never a hang: ok means everything arrived,
    // degraded means the watchdog cut a stalled run cleanly.
    if (out.completed) {
      EXPECT_EQ(out.status, RunStatus::kOk) << "seed " << seed;
    } else {
      EXPECT_EQ(out.status, RunStatus::kDegraded) << "seed " << seed;
    }
  }
}

TEST(Resilience, PointToPointTerminatesUnderCrashAndJam) {
  const Graph g = gen::grid(4, 5);
  PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  ASSERT_TRUE(prep.ok);
  Rng rng(31);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<P2pRequest> reqs;
    for (int i = 0; i < 12; ++i) {
      P2pRequest r;
      r.src = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      r.dst = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      r.payload = 5000 + i;
      reqs.push_back(r);
    }
    P2pConfig cfg = P2pConfig::for_graph(g);
    cfg.faults = harsh_plan();
    cfg.stall_slots = 100'000;
    const auto out = run_point_to_point(g, prep, reqs, cfg, seed);
    EXPECT_LE(out.delivered, reqs.size());
    if (out.completed) {
      EXPECT_EQ(out.status, RunStatus::kOk) << "seed " << seed;
    } else {
      EXPECT_EQ(out.status, RunStatus::kDegraded) << "seed " << seed;
    }
  }
}

TEST(Resilience, KBroadcastTerminatesUnderCrashAndJam) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Rng rng(33);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<NodeId> sources;
    for (int i = 0; i < 6; ++i)
      sources.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
    BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
    cfg.faults = harsh_plan();
    cfg.stall_slots = 100'000;
    const auto out = run_k_broadcast(g, tree, sources, cfg, seed);
    if (out.completed) {
      EXPECT_EQ(out.status, RunStatus::kOk) << "seed " << seed;
    } else {
      EXPECT_EQ(out.status, RunStatus::kDegraded) << "seed " << seed;
    }
  }
}

TEST(Resilience, RankingTerminatesUnderJam) {
  const Graph g = gen::path(12);
  PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  ASSERT_TRUE(prep.ok);
  Rng rng(47);
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (auto& id : ids) id = rng.next();
  FaultPlan plan;
  plan.jam_prob = 0.15;
  const auto out =
      run_ranking(g, prep, ids, 5, 50'000'000, {}, plan, 200'000);
  if (out.completed) {
    EXPECT_EQ(out.status, RunStatus::kOk);
  } else {
    EXPECT_EQ(out.status, RunStatus::kDegraded);
  }
}

TEST(Resilience, SetupUnderSustainedFaultsReportsDegradedNotHang) {
  // Heavy sustained crashing: the verify/restart loop must burn through
  // its (small, test-sized) attempt budget and come back degraded.
  const Graph g = gen::grid(4, 4);
  SetupTuning tuning;
  tuning.faults.crash_rate = 0.4;
  tuning.faults.recover_rate = 0.3;
  tuning.faults.epoch_slots = 128;
  const auto out = run_setup(g, 17, tuning, /*max_attempts=*/3);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.status, RunStatus::kDegraded);
}

TEST(Resilience, SetupSurvivesMidRunCrashBurst) {
  // A crash burst confined to an early window, with always-on recovery:
  // the poisoned attempts fail verification, the restart loop retries,
  // and once the burst heals an attempt succeeds with a valid BFS tree.
  // The crashed stations wake mid-schedule and must resync through the
  // attempt boundaries they slept through.
  const Graph g = gen::grid(5, 5);
  SetupTuning tuning;
  tuning.faults.crash_rate = 0.3;
  tuning.faults.recover_rate = 0.8;
  tuning.faults.epoch_slots = 256;
  tuning.faults.window_end = 20'000;
  const auto out = run_setup(g, 2, tuning, /*max_attempts=*/8);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.status, RunStatus::kOk);
  EXPECT_GT(out.attempts, 1u);
  EXPECT_TRUE(is_bfs_tree_of(g, out.tree));
}

TEST(Resilience, FloodUnderLinkChurnStillTerminates) {
  const Graph g = gen::rary_tree(31, 2);
  FaultPlan plan;
  plan.link_down_rate = 0.1;
  plan.link_up_rate = 0.5;
  plan.epoch_slots = 64;
  const auto out = run_bgi_broadcast(g, 0, 200, 5, plan);
  // Phase-budget bounded; under churn the coverage may be partial but
  // the source itself is always informed.
  EXPECT_GE(out.informed_count, 1u);
  EXPECT_LE(out.informed_count, g.num_nodes());
}

}  // namespace
}  // namespace radiomc
