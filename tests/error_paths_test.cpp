// Precondition enforcement across the public API (Core Guidelines I.6):
// constructors and drivers must reject malformed input loudly instead of
// corrupting a simulation.

#include <gtest/gtest.h>

#include <string>

#include "faults/fault_plan.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/distribution.h"
#include "protocols/ethernet_emulation.h"
#include "protocols/ranking.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "radio/schedule.h"
#include "support/rng.h"

namespace radiomc {
namespace {

TEST(ErrorPaths, BfsTreeRejectsCyclesAndOrphans) {
  // 0 <- 1 <- 2 but 3's parent is itself-ish (cycle 3 <-> 4).
  EXPECT_THROW(
      BfsTree::from_parents(0, {kNoNode, 0, 1, 4, 3}),
      std::invalid_argument);
  // Root with a parent.
  EXPECT_THROW(BfsTree::from_parents(0, {1, 0}), std::invalid_argument);
  // Parent out of range.
  EXPECT_THROW(BfsTree::from_parents(0, {kNoNode, 9}),
               std::invalid_argument);
  // Root out of range.
  EXPECT_THROW(BfsTree::from_parents(5, {kNoNode, 0}),
               std::invalid_argument);
}

TEST(ErrorPaths, NetworkAttachValidation) {
  const Graph g = gen::path(3);
  RadioNetwork net(g);
  EXPECT_THROW(net.attach({}), std::invalid_argument);  // wrong count
  EXPECT_THROW(net.step(), std::invalid_argument);      // nothing attached
}

TEST(ErrorPaths, NetworkConfigValidation) {
  const Graph g = gen::path(2);
  RadioNetwork::Config bad;
  bad.num_channels = 0;
  EXPECT_THROW(RadioNetwork(g, bad), std::invalid_argument);
  RadioNetwork::Config bad2;
  bad2.capture_prob = 1.5;
  EXPECT_THROW(RadioNetwork(g, bad2), std::invalid_argument);
}

TEST(ErrorPaths, PhaseClockValidation) {
  SlotStructure s;
  s.decay_len = 1;
  EXPECT_THROW(PhaseClock{s}, std::invalid_argument);
}

TEST(ErrorPaths, DistributionRootOnlyCalls) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  DistributionStation leaf(3, tree, DistributionConfig::for_graph(g),
                           Rng(1));
  Message m;
  EXPECT_THROW(leaf.root_enqueue(m), std::invalid_argument);
  EXPECT_THROW(leaf.root_request_resend(0), std::invalid_argument);
  EXPECT_THROW(leaf.root_checkpoint_ack(1, 1), std::invalid_argument);
}

TEST(ErrorPaths, DistributionNackRetryIsAtLeastOneSuperphase) {
  // 0 would re-issue a NACK at a boundary fired late in the superphase
  // that revealed the gap, so the slot it went out in would depend on
  // when the station happened to be polled.
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  DistributionConfig cfg = DistributionConfig::for_graph(g);
  cfg.nack_retry_superphases = 0;
  EXPECT_THROW(DistributionStation(3, tree, cfg, Rng(1)),
               std::invalid_argument);
}

TEST(ErrorPaths, CollectionInjectRequiresOwnOrigin) {
  const Graph g = gen::path(3);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionStation st(2, tree, CollectionConfig::for_graph(g), Rng(2));
  Message m;
  m.origin = 1;  // not node 2
  EXPECT_THROW(st.inject(m), std::invalid_argument);
}

TEST(ErrorPaths, RankingValidation) {
  const Graph g = gen::path(4);
  PreparationResult prep;  // empty routing
  EXPECT_THROW(run_ranking(g, prep, {1, 2, 3, 4}, 1), std::invalid_argument);
}

TEST(ErrorPaths, VirtualEthernetNeedsPolicy) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  VirtualEthernet bus(g, tree, VirtualEthernet::Config::for_graph(g), 3);
  EXPECT_THROW(bus.run_rounds(2), std::invalid_argument);
}

TEST(ErrorPaths, BroadcastServiceTreeMismatch) {
  const Graph g = gen::path(4);
  const Graph g2 = gen::path(5);
  const BfsTree tree = oracle_bfs_tree(g2, 0);
  EXPECT_THROW(
      BroadcastService(g, tree, BroadcastServiceConfig::for_graph(g), 1),
      std::invalid_argument);
}

TEST(ErrorPaths, MismatchedTreeInCollectionDriver) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(gen::path(6), 0);
  EXPECT_THROW(
      run_collection(g, tree, {}, CollectionConfig::for_graph(g), 1),
      std::invalid_argument);
}

/// Runs `plan.validate()` and returns the rejection message ("" if the
/// plan was accepted) so the tests can pin the exact wording the CLI
/// surfaces to users.
std::string fault_plan_rejection(const FaultPlan& plan) {
  try {
    plan.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ErrorPaths, FaultPlanRejectsOutOfRangeRates) {
  FaultPlan p;
  p.crash_rate = 1.5;
  EXPECT_EQ(fault_plan_rejection(p), "FaultPlan: crash_rate must be in [0, 1]");
  p = FaultPlan{};
  p.crash_rate = 0.1;
  p.recover_rate = -0.5;
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: recover_rate must be in [0, 1]");
  p = FaultPlan{};
  p.link_down_rate = 2.0;
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: link_down_rate must be in [0, 1]");
  p = FaultPlan{};
  p.link_down_rate = 0.1;
  p.link_up_rate = -1.0;
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: link_up_rate must be in [0, 1]");
  p = FaultPlan{};
  p.jam_prob = 1.0001;
  EXPECT_EQ(fault_plan_rejection(p), "FaultPlan: jam_prob must be in [0, 1]");
  p = FaultPlan{};
  p.drop_prob = -0.0001;
  EXPECT_EQ(fault_plan_rejection(p), "FaultPlan: drop_prob must be in [0, 1]");
}

TEST(ErrorPaths, FaultPlanRejectsContradictoryCombinations) {
  FaultPlan p;
  p.recover_rate = 0.5;  // healing without any crashing
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: recover_rate without crash_rate is contradictory");
  p = FaultPlan{};
  p.link_up_rate = 0.5;  // link healing without any link churn
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: link_up_rate without link_down_rate is contradictory");
  p = FaultPlan{};
  p.jam_prob = 0.1;
  p.epoch_slots = 0;
  EXPECT_EQ(fault_plan_rejection(p), "FaultPlan: epoch_slots must be >= 1");
  p = FaultPlan{};
  p.jam_prob = 0.1;
  p.window_start = 100;
  p.window_end = 100;  // empty onset window
  EXPECT_EQ(fault_plan_rejection(p),
            "FaultPlan: fault window is empty (window_end <= window_start)");
}

TEST(ErrorPaths, FaultPlanAcceptsBoundaryValues) {
  FaultPlan p;
  p.crash_rate = 1.0;
  p.recover_rate = 1.0;
  p.link_down_rate = 1.0;
  p.link_up_rate = 1.0;
  p.jam_prob = 1.0;
  p.drop_prob = 1.0;
  p.epoch_slots = 1;
  EXPECT_EQ(fault_plan_rejection(p), "");
  EXPECT_EQ(fault_plan_rejection(FaultPlan{}), "");  // all-zero: valid, off
}

}  // namespace
}  // namespace radiomc
