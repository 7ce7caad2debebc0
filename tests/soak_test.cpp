// Long-running soak tests: sustained load through the full stacks, meant
// to shake out slow state leaks, wraparound bugs, and rare orderings that
// short tests miss. Still fast in absolute terms (a few seconds).

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "queueing/analysis.h"
#include "radio/schedule.h"
#include "service/certify.h"
#include "service/service.h"
#include "support/rng.h"

namespace radiomc {
namespace {

TEST(Soak, BroadcastHundredsThroughTinyWindow) {
  // 300 broadcasts through W = 4: the wire numbering wraps ~19 times, the
  // checkpoint base advances 70+ times, and the drain guard gets exercised
  // constantly. Everything must still be exactly-once in-order everywhere.
  Rng rng(0x50AC);
  const Graph g = gen::grid(3, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.distribution.window = 4;
  BroadcastService svc(g, tree, cfg, rng.next());
  const int k = 300;
  int injected = 0;
  // Staggered injection to keep the window under continuous pressure.
  while (injected < k) {
    for (int burst = 0; burst < 5 && injected < k; ++burst)
      svc.broadcast(static_cast<NodeId>(rng.next_below(12)), injected++);
    svc.run(1500);
  }
  ASSERT_TRUE(svc.run_until_delivered(500'000'000));
  for (NodeId v = 1; v < 12; ++v) {
    const auto& log = svc.distribution(v).delivery_log();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(k)) << "node " << v;
    for (int i = 0; i < k; ++i)
      ASSERT_EQ(log[i].second, static_cast<std::uint32_t>(i));
  }
}

TEST(Soak, LossyWindowedLongRun) {
  Rng rng(0x50AD);
  const Graph g = gen::path(8);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.distribution.window = 6;
  cfg.distribution.phases_per_superphase = 1;  // heavy per-hop loss
  BroadcastService svc(g, tree, cfg, rng.next());
  const int k = 120;
  for (int i = 0; i < k; ++i)
    svc.broadcast(static_cast<NodeId>(rng.next_below(8)), i);
  ASSERT_TRUE(svc.run_until_delivered(500'000'000));
  for (NodeId v = 1; v < 8; ++v)
    EXPECT_EQ(svc.distribution(v).delivered_prefix(),
              static_cast<std::uint32_t>(k));
}

TEST(Soak, OpenSystemHighLoadStaysStable) {
  // lambda close to mu: queues build but must not diverge (the system is
  // still subcritical); the run ends with the backlog drained to O(model).
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  service::ServeConfig cfg;
  cfg.arrival.kind = service::ArrivalKind::kBernoulli;
  cfg.arrival.rate = 0.95 * 0.2325;
  cfg.phases = 30'000;
  cfg.warmup_phases = 5'000;
  const service::ServeOutcome out = service::run_service(g, tree, cfg, 0x50AE);
  EXPECT_GT(out.delivered, 5'000u);
  // Population stays bounded (far below the total injected).
  EXPECT_LT(out.population.mean(), 50.0);
}

TEST(Soak, ServeMillionSlotCertifiedSoak) {
  // The E17 smoke at test scale: a full-length service soak (>= 10^6
  // engine slots) at half the Theorem 4.1 advance rate must certify clean
  // — sustained throughput, bounded sojourn, exactly-once, bounded queues.
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const double mu = queueing::mu_decay();
  const std::uint64_t spp =
      PhaseClock(CollectionConfig::for_graph(g).slots).slots_per_phase();

  service::ServeConfig cfg;
  cfg.arrival.kind = service::ArrivalKind::kBernoulli;
  cfg.arrival.rate = 0.5 * mu;
  cfg.warmup_phases = 2'000;
  cfg.phases = 1'000'000 / spp + 1;
  const service::ServeOutcome out = service::run_service(g, tree, cfg, 0xE17);
  EXPECT_GE(out.slots, 1'000'000u);
  EXPECT_EQ(out.duplicates, 0u);
  EXPECT_EQ(out.status, RunStatus::kOk);

  const service::SoakVerdict v = service::certify_soak(
      out, cfg.arrival.mean_rate(), mu, tree.depth, service::CertifyConfig{});
  EXPECT_TRUE(v.pass) << v.to_json();
}

}  // namespace
}  // namespace radiomc
