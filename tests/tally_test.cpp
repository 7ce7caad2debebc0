// The drivers' O(1) progress tallies against the O(n) scans they replace,
// compared after every slot of faulted runs:
//  * the per-level buffer count the stations' hops keep (AckedHop::
//    count_into), read by run_collection's occupancy snapshot and
//    run_service's depth vector, against summing buffer_size() by level —
//    under crash, drop and jam faults, with capture and the dedup guard,
//    with mid-run injects and with place/reset;
//  * BroadcastService::min_delivered_prefix (a PrefixTally) against the
//    minimum over every non-root station, on a faulted k-broadcast with
//    NACK resends and window checkpoints;
//  * the p2p sink feed, read the way run_point_to_point and run_ranking
//    read it, against a scan of all 2n sinks, with lost acks duplicating
//    deliveries.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/point_to_point.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {
namespace {

FaultPlan crash_plan() {
  FaultPlan p;
  p.crash_rate = 0.05;
  p.recover_rate = 0.4;
  p.epoch_slots = 64;
  return p;
}

FaultPlan drop_plan() {
  FaultPlan p;
  p.drop_prob = 0.1;
  return p;
}

FaultPlan jam_plan() {
  FaultPlan p;
  p.jam_prob = 0.1;
  return p;
}

struct CollectionCase {
  std::string name;
  FaultPlan plan;
  bool dedup_guard = false;
  double capture_prob = 0.0;
};

/// Prints a case by name (gtest would otherwise print its raw bytes, and
/// the ctest names would carry a heap address).
void PrintTo(const CollectionCase& c, std::ostream* os) { *os << c.name; }

class CollectionTally : public ::testing::TestWithParam<CollectionCase> {};

TEST_P(CollectionTally, LevelCountsMatchABufferScanEverySlot) {
  const CollectionCase& c = GetParam();
  Rng rng(0x7A11);
  const Graph g = gen::unit_disk_connected(40, gen::udg_connect_radius(40),
                                           rng);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.dedup_guard = c.dedup_guard;

  Rng master(rng.next());
  std::vector<std::uint64_t> tally(tree.depth + 1, 0);
  std::vector<std::unique_ptr<CollectionStation>> st;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    st.push_back(
        std::make_unique<CollectionStation>(v, tree, cfg, master.split(v)));
    st.back()->count_buffer_into(tally);
  }
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : st) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork::Config ncfg;
  ncfg.capture_prob = c.capture_prob;
  RadioNetwork net(g, ncfg);
  FaultSchedule faults(g, c.plan, rng.next());
  net.set_faults(&faults);
  net.attach(std::move(ptrs));

  const auto scan = [&] {
    std::vector<std::uint64_t> by_level(tree.depth + 1, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      by_level[tree.level[v]] += st[v]->buffer_size();
    return by_level;
  };
  std::vector<std::uint32_t> next_seq(g.num_nodes(), 0);
  const auto inject = [&](NodeId v) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = next_seq[v]++;
    st[v]->inject(m);
  };
  for (NodeId v = 1; v < g.num_nodes(); ++v) inject(v);

  const std::uint64_t spp = st[0]->clock().slots_per_phase();
  std::uint64_t peak = 0;
  for (std::uint64_t phase = 0; phase < 60; ++phase) {
    // Mid-run arrivals between phases, as run_service admits them.
    for (int i = 0; i < 3; ++i)
      inject(1 + static_cast<NodeId>(rng.next_below(g.num_nodes() - 1)));
    ASSERT_EQ(tally, scan()) << c.name << " after the injects of phase "
                             << phase;
    for (std::uint64_t s = 0; s < spp; ++s) {
      net.step();
      ASSERT_EQ(tally, scan()) << c.name << " at slot " << net.now();
      for (const std::uint64_t d : tally) peak = std::max(peak, d);
    }
  }
  EXPECT_GT(st[0]->root_sink().size(), 0u) << c.name;
  EXPECT_GT(peak, 1u) << c.name;
  const NetMetrics& nm = net.metrics();
  EXPECT_EQ(nm.fault_crashed_slots > 0, c.plan.crash_rate > 0) << c.name;
  EXPECT_EQ(nm.fault_drops > 0, c.plan.drop_prob > 0) << c.name;
  EXPECT_EQ(nm.fault_jams > 0, c.plan.jam_prob > 0) << c.name;
  EXPECT_EQ(nm.capture_deliveries > 0, c.capture_prob > 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Faults, CollectionTally,
    ::testing::Values(CollectionCase{"nofault", FaultPlan{}},
                      CollectionCase{"crash", crash_plan()},
                      CollectionCase{"drop", drop_plan()},
                      CollectionCase{"jam_nocapture", jam_plan()},
                      CollectionCase{"jam_capture_dedup", jam_plan(), true,
                                     0.3},
                      CollectionCase{"crash_capture", crash_plan(), false,
                                     0.3}),
    [](const auto& tp) { return tp.param.name; });

TEST(CollectionTally, PlaceAndResetMoveTheCount) {
  // Setup's usage: unbound stations that join the tree later, and resets
  // between attempts.
  const Graph g = gen::path(4);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  std::vector<std::uint64_t> tally(4, 0);
  CollectionStation s(2, cfg, Rng(1));
  s.count_buffer_into(tally);
  Message m;
  m.kind = MsgKind::kData;
  m.origin = 2;
  s.inject(m);  // unbound: queued at level 0
  m.seq = 1;
  s.inject(m);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{2, 0, 0, 0}));
  s.set_local(1, 2, false);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{0, 0, 2, 0}));
  s.set_local(2, 3, false);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{0, 0, 0, 2}));
  s.reset(Rng(2));
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{0, 0, 0, 0}));
  s.set_local(1, 1, false);
  m.seq = 2;
  s.inject(m);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{0, 1, 0, 0}));
  EXPECT_EQ(s.buffer_size(), 1u);
}

TEST(PrefixTally, MinDeliveredPrefixMatchesAScanEverySlot) {
  Rng rng(0x9F1);
  const Graph g = gen::grid(4, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.distribution.window = 4;                 // checkpoints every 4
  cfg.distribution.phases_per_superphase = 2;  // real losses, so NACKs
  cfg.faults.jam_prob = 0.05;
  cfg.faults.crash_rate = 0.02;
  cfg.faults.recover_rate = 0.5;
  cfg.faults.epoch_slots = 256;
  BroadcastService svc(g, tree, cfg, rng.next());
  const std::uint32_t k = 40;  // ten windows: completion needs checkpoints
  for (std::uint32_t i = 0; i < k; ++i)
    svc.broadcast(static_cast<NodeId>(rng.next_below(g.num_nodes())), i);

  const auto scan = [&] {
    std::uint32_t best = static_cast<std::uint32_t>(-1);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (v != tree.root)
        best = std::min(best, svc.distribution(v).delivered_prefix());
    return best;
  };
  ASSERT_EQ(svc.min_delivered_prefix(), 0u);
  while (scan() < k && svc.now() < 3'000'000) {
    svc.run(1);
    ASSERT_EQ(svc.min_delivered_prefix(), scan()) << "at slot " << svc.now();
  }
  EXPECT_GE(scan(), k);
  EXPECT_GT(svc.distribution(tree.root).root_resends(), 0u);
}

TEST(PrefixTally, NoMembersReadsAllDelivered) {
  PrefixTally t;
  EXPECT_EQ(t.min(), static_cast<std::uint32_t>(-1));
  t.join();
  t.join();
  EXPECT_EQ(t.min(), 0u);
  t.advance(0);
  EXPECT_EQ(t.min(), 0u);
  t.advance(1);
  t.advance(0);
  EXPECT_EQ(t.min(), 1u);
  t.advance(1);
  EXPECT_EQ(t.min(), 2u);
}

TEST(P2pFeed, FirstCopiesMatchAScanOfEverySinkEverySlot) {
  Rng rng(0xFEED);
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const PreparationResult prep = run_preparation(g, tree);
  ASSERT_TRUE(prep.ok);
  const NodeId n = g.num_nodes();
  P2pConfig cfg = P2pConfig::for_graph(g);

  Rng master(rng.next());
  std::vector<AckedHop::Delivery> up_feed, down_feed;
  std::vector<std::unique_ptr<P2pUpStation>> ups;
  std::vector<std::unique_ptr<P2pDownStation>> downs;
  for (NodeId v = 0; v < n; ++v) {
    ups.push_back(std::make_unique<P2pUpStation>(v, prep.routing[v], cfg,
                                                 master.split(2 * v)));
    downs.push_back(std::make_unique<P2pDownStation>(
        v, prep.routing[v], cfg, master.split(2 * v + 1)));
    ups.back()->set_down(downs.back().get());
    ups.back()->feed_into(up_feed);
    downs.back()->feed_into(down_feed);
  }
  for (int i = 0; i < 80; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(n));
    const NodeId d = static_cast<NodeId>(rng.next_below(n));
    ups[s]->send(prep.labels.number[d], i);
  }
  std::deque<ChannelMuxStation> muxes;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v)
    muxes.emplace_back(std::vector<SubStation*>{ups[v].get(), downs[v].get()});
  for (auto& m : muxes) ptrs.push_back(&m);
  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  RadioNetwork net(g, ncfg);
  FaultPlan plan = jam_plan();  // a jammed ack is a lost ack
  plan.jam_prob = 0.15;
  FaultSchedule faults(g, plan, rng.next());
  net.set_faults(&faults);
  net.attach(std::move(ptrs));

  const auto tag = [](const Message& m) {
    return (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
  };
  // What the drivers keep: run_point_to_point's first-copy slot per tag,
  // and run_ranking's set of destinations served by a down sink.
  std::map<std::uint64_t, SlotTime> first_copy;
  std::set<std::uint32_t> served;
  const auto read_feeds = [&] {
    for (const auto* feed : {&up_feed, &down_feed})
      for (const AckedHop::Delivery& d : *feed)
        first_copy.try_emplace(tag(d.msg), d.slot);
    for (const AckedHop::Delivery& d : down_feed) served.insert(d.msg.dest);
    up_feed.clear();
    down_feed.clear();
  };
  std::size_t entries = 0;
  const auto check_against_scan = [&] {
    std::map<std::uint64_t, SlotTime> scanned;
    std::size_t nonempty_downs = 0;
    entries = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (const auto* sink : {&ups[v]->sink(), &downs[v]->sink()})
        for (const AckedHop::Delivery& d : *sink) {
          ++entries;
          const auto [it, fresh] = scanned.try_emplace(tag(d.msg), d.slot);
          if (!fresh) it->second = std::min(it->second, d.slot);
        }
      nonempty_downs += downs[v]->sink().empty() ? 0 : 1;
    }
    EXPECT_EQ(first_copy, scanned) << "at slot " << net.now();
    EXPECT_EQ(served.size(), nonempty_downs) << "at slot " << net.now();
  };
  read_feeds();  // self-addressed sends arrive before the first slot
  check_against_scan();
  while (first_copy.size() < 80 && net.now() < 2'000'000) {
    net.step();
    read_feeds();
    check_against_scan();
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(first_copy.size(), 80u);
  EXPECT_GT(entries, first_copy.size()) << "no duplicate copy was delivered";
}

}  // namespace
}  // namespace radiomc
