// §8 Remark 3 — the capture conflict model ("in case of a conflict the
// receiver may get one of the messages"):
//  * the engine's capture mode delivers a uniform choice among colliding
//    transmitters with the configured probability;
//  * the paper's claim that "our deterministic acknowledgement mechanism
//    is no longer valid" — we exhibit a lost acknowledgement;
//  * the "more complicated, less reliable and slower protocol": collection
//    with the dedup guard stays exactly-once under capture, and without
//    the guard duplicates actually occur;
//  * distribution (no acks, idempotent by sequence number) tolerates
//    capture as-is.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {
namespace {

class CountingStation final : public Station {
 public:
  bool sends = false;
  std::uint64_t payload = 0;
  std::map<std::uint64_t, int> received;  // payload -> count

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (t == 0 && sends) {
      Message m;
      m.payload = payload;
      tx[0] = m;
    }
  }
  void on_receive(SlotTime, ChannelId, const Message& m) override {
    ++received[m.payload];
  }

 private:
  Waker waker_;
};

TEST(Capture, OffMeansSilenceOnCollision) {
  const Graph g = gen::star(4);
  std::deque<CountingStation> st(4);
  st[1].sends = st[2].sends = true;
  RadioNetwork net(g);
  net.attach({&st[0], &st[1], &st[2], &st[3]});
  net.step();
  EXPECT_TRUE(st[0].received.empty());
  EXPECT_EQ(net.metrics().capture_deliveries, 0u);
}

TEST(Capture, FullCaptureAlwaysDeliversOneOfThem) {
  const Graph g = gen::star(4);
  int got1 = 0, got2 = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::deque<CountingStation> st(4);
    st[1].sends = st[2].sends = true;
    st[1].payload = 1;
    st[2].payload = 2;
    RadioNetwork::Config cfg;
    cfg.capture_prob = 1.0;
    cfg.capture_stream = Rng(1000 + trial);
    RadioNetwork net(g, cfg);
    net.attach({&st[0], &st[1], &st[2], &st[3]});
    net.step();
    ASSERT_EQ(st[0].received.size(), 1u);
    if (st[0].received.contains(1)) ++got1;
    if (st[0].received.contains(2)) ++got2;
    EXPECT_EQ(net.metrics().capture_deliveries, 1u);
  }
  // Uniform choice among the two transmitters.
  EXPECT_GT(got1, 60);
  EXPECT_GT(got2, 60);
}

TEST(Capture, PartialProbabilityRoughlyRespected) {
  const Graph g = gen::star(4);
  int delivered = 0;
  const int trials = 1000;
  for (int trial = 0; trial < trials; ++trial) {
    std::deque<CountingStation> st(4);
    st[1].sends = st[2].sends = true;
    RadioNetwork::Config cfg;
    cfg.capture_prob = 0.3;
    cfg.capture_stream = Rng(2000 + trial);
    RadioNetwork net(g, cfg);
    net.attach({&st[0], &st[1], &st[2], &st[3]});
    net.step();
    delivered += st[0].received.empty() ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.3, 0.06);
}

// Remark 3's negative result: under capture the Theorem 3.1 argument
// breaks — a receiver can get its message while the sender's ack is lost
// to an ack-vs-ack conflict. We reconstruct it on the Figure-1 gadget.
class AckProbe final : public Station {
 public:
  NodeId me = 0;
  bool sends = false;
  NodeId designated = kNoNode;
  bool got_data = false;
  NodeId data_from = kNoNode;
  bool got_ack = false;

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (t == 0 && sends) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = me;
      m.dest = designated;
      tx[0] = m;
    } else if (t == 1 && got_data) {
      Message ack;
      ack.kind = MsgKind::kAck;
      ack.dest = data_from;
      tx[0] = ack;
    }
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    if (t == 0 && m.kind == MsgKind::kData && m.dest == me) {
      got_data = true;
      data_from = m.sender;
    } else if (t == 1 && m.kind == MsgKind::kAck && m.dest == me) {
      got_ack = true;
    }
  }

 private:
  Waker waker_;
};

TEST(Capture, AckTheoremFailsUnderCapture) {
  // u(0)-v(1), u'(2)-v'(3), cross u-v', u'-v. Under capture both v and v'
  // can receive (each captures one of the two data messages); then both
  // ack at t=1 and the acks collide at u and u' — unless capture resolves
  // them, in which case at most one side gets its ack. Over many seeds a
  // received-but-unacked message must appear.
  const Graph g(4, {{0, 1}, {2, 3}, {0, 3}, {2, 1}});
  int violations = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::deque<AckProbe> p(4);
    for (NodeId i = 0; i < 4; ++i) p[i].me = i;
    p[0].sends = true;
    p[0].designated = 1;
    p[2].sends = true;
    p[2].designated = 3;
    RadioNetwork::Config cfg;
    cfg.capture_prob = 1.0;
    cfg.capture_stream = Rng(3000 + trial);
    RadioNetwork net(g, cfg);
    net.attach({&p[0], &p[1], &p[2], &p[3]});
    net.run(2);
    if (p[1].got_data && p[1].data_from == 0 && !p[0].got_ack) ++violations;
    if (p[3].got_data && p[3].data_from == 2 && !p[2].got_ack) ++violations;
  }
  EXPECT_GT(violations, 0) << "capture should break deterministic acks";
}

// The guard: collection stays exactly-once under full capture.
class CaptureCollection : public ::testing::TestWithParam<int> {};

TEST_P(CaptureCollection, DedupGuardKeepsExactlyOnce) {
  Rng rng(4000 + GetParam());
  const Graph g = gen::gnp_connected(18, 0.3, rng);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<Message> init;
  for (NodeId v = 1; v < g.num_nodes(); ++v)
    for (std::uint32_t s = 0; s < 3; ++s) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = s;
      init.push_back(m);
    }

  // The standalone driver does not expose engine config; build the run
  // manually with capture on.
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.dedup_guard = true;
  Rng master(rng.next());
  std::vector<std::unique_ptr<CollectionStation>> stations;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    stations.push_back(
        std::make_unique<CollectionStation>(v, tree, cfg, master.split(v)));
  for (const Message& m : init) stations[m.origin]->inject(m);
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork::Config ncfg;
  ncfg.capture_prob = 1.0;
  ncfg.capture_stream = rng.split(0xCA);
  RadioNetwork net(g, ncfg);
  net.attach(std::move(ptrs));
  while (stations[0]->root_sink().size() < init.size() &&
         net.now() < 4'000'000)
    net.step();

  ASSERT_GE(stations[0]->root_sink().size(), init.size());
  std::map<std::pair<NodeId, std::uint32_t>, int> counts;
  for (const auto& d : stations[0]->root_sink())
    ++counts[{d.msg.origin, d.msg.seq}];
  EXPECT_EQ(counts.size(), init.size());
  for (auto& [key, c] : counts) EXPECT_EQ(c, 1) << key.first;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaptureCollection, ::testing::Range(0, 4));

TEST(Capture, WithoutGuardDuplicatesOccur) {
  // Same setup, guard off: across seeds, at least one duplicate delivery
  // should reach the root (the Remark 3 failure mode).
  int dup_runs = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(5000 + seed);
    const Graph g = gen::gnp_connected(18, 0.3, rng);
    const BfsTree tree = oracle_bfs_tree(g, 0);
    std::vector<Message> init;
    for (NodeId v = 1; v < g.num_nodes(); ++v)
      for (std::uint32_t s = 0; s < 3; ++s) {
        Message m;
        m.kind = MsgKind::kData;
        m.origin = v;
        m.seq = s;
        init.push_back(m);
      }
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    Rng master(rng.next());
    std::vector<std::unique_ptr<CollectionStation>> stations;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      stations.push_back(
          std::make_unique<CollectionStation>(v, tree, cfg, master.split(v)));
    for (const Message& m : init) stations[m.origin]->inject(m);
    std::deque<SingleStation> adapters;
    std::vector<Station*> ptrs;
    for (auto& s : stations) adapters.emplace_back(*s);
    for (auto& a : adapters) ptrs.push_back(&a);
    RadioNetwork::Config ncfg;
    ncfg.capture_prob = 1.0;
    ncfg.capture_stream = rng.split(0xCA);
    RadioNetwork net(g, ncfg);
    net.attach(std::move(ptrs));
    while (stations[0]->root_sink().size() < init.size() &&
           net.now() < 500'000)
      net.step();
    std::map<std::pair<NodeId, std::uint32_t>, int> counts;
    for (const auto& d : stations[0]->root_sink())
      ++counts[{d.msg.origin, d.msg.seq}];
    for (auto& [key, c] : counts)
      if (c > 1) {
        ++dup_runs;
        break;
      }
  }
  EXPECT_GT(dup_runs, 0)
      << "guard-less collection under capture should eventually duplicate";
}

class CaptureBroadcast : public ::testing::TestWithParam<int> {};

TEST_P(CaptureBroadcast, FullServiceSurvivesCapture) {
  // End-to-end k-broadcast on a capture-mode physical layer: the
  // collection channel needs the Remark-3 dedup guard (acks can be lost),
  // while distribution is idempotent by sequence number and its control
  // consumers (resend requests, checkpoint acks) are idempotent at the
  // root. Exactly-once in-order delivery must survive.
  Rng rng(4800 + GetParam());
  const Graph g = gen::grid(3, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.collection.dedup_guard = true;
  cfg.distribution.window = 4;
  cfg.engine.capture_prob = 1.0;
  cfg.engine.capture_stream = rng.split(0xCA);
  BroadcastService svc(g, tree, cfg, rng.next());
  const int k = 20;
  for (int i = 0; i < k; ++i)
    svc.broadcast(static_cast<NodeId>(rng.next_below(12)), i);
  ASSERT_TRUE(svc.run_until_delivered(200'000'000));
  for (NodeId v = 1; v < 12; ++v) {
    const auto& log = svc.distribution(v).delivery_log();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(k)) << "node " << v;
    for (int i = 0; i < k; ++i)
      EXPECT_EQ(log[i].second, static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaptureBroadcast, ::testing::Range(0, 3));

}  // namespace
}  // namespace radiomc
