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
#include <optional>
#include <string>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "golden_hash.h"
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

TEST(Capture, RepeatedKeyFromOneChildIsReackedAndDeliveredOnce) {
  // The guard's unit case: a child whose ack was lost sends its head
  // again. The parent acknowledges every copy but accepts only the first;
  // the next key from that child is fresh again. Checked at the root (the
  // sink) and at a relay (its FIFO).
  const Graph g = gen::path(3);  // 0 - 1 - 2, rooted at 0
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.dedup_guard = true;
  CollectionStation root(0, tree, cfg, Rng(1));
  CollectionStation relay(1, tree, cfg, Rng(2));
  SlotTime data = 0;  // a data subslot followed by an ack subslot
  while (root.clock().decode(data).is_ack ||
         !root.clock().decode(data + 1).is_ack)
    ++data;
  const SlotTime spp = root.clock().slots_per_phase();

  auto send = [&](CollectionStation& to, NodeId from, std::uint32_t seq,
                  std::uint64_t phase) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = 2;
    m.seq = seq;
    m.sender = from;
    m.sender_parent = to.id();
    const SlotTime t = data + phase * spp;
    to.deliver(t, m);
    const std::optional<Message> ack = to.poll(t + 1);
    ASSERT_TRUE(ack.has_value()) << "no ack for seq " << seq;
    EXPECT_EQ(ack->kind, MsgKind::kAck);
    EXPECT_EQ(ack->dest, from);
    EXPECT_EQ(ack->origin, 2u);
    EXPECT_EQ(ack->seq, seq);
  };
  send(root, 1, 5, 0);
  send(root, 1, 5, 1);  // the copy: re-acked, not delivered
  ASSERT_EQ(root.root_sink().size(), 1u);
  send(root, 1, 6, 2);
  send(root, 1, 6, 3);
  ASSERT_EQ(root.root_sink().size(), 2u);
  EXPECT_EQ(root.root_sink()[0].msg.seq, 5u);
  EXPECT_EQ(root.root_sink()[1].msg.seq, 6u);

  send(relay, 2, 5, 0);
  send(relay, 2, 5, 1);
  EXPECT_EQ(relay.buffer_size(), 1u);
}

/// One exactly-once collection under full capture and a fault plan, with
/// or without the guard: the root's arrivals in order and what they cost.
struct GuardedRun {
  std::uint64_t digest = 0;  ///< FNV of (slot, origin, seq) per arrival
  SlotTime slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t faults = 0;      ///< jams + drops + crashed node-slots
  std::uint64_t duplicates = 0;  ///< arrivals of an already-delivered key
  std::size_t missing = 0;       ///< keys never delivered
};

GuardedRun guarded_collection(const Graph& g, std::uint64_t seed,
                              const FaultPlan& plan, bool guard) {
  Rng rng(seed);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.dedup_guard = guard;
  std::vector<std::unique_ptr<CollectionStation>> stations;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    stations.push_back(
        std::make_unique<CollectionStation>(v, tree, cfg, rng.split(v)));
  std::map<std::pair<NodeId, std::uint32_t>, int> counts;
  for (NodeId v = 1; v < g.num_nodes(); ++v)
    for (std::uint32_t s = 0; s < 6; ++s) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = s;
      stations[v]->inject(m);
      counts[{v, s}] = 0;
    }
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork::Config ncfg;
  ncfg.capture_prob = 1.0;
  ncfg.capture_stream = rng.split(0xCA);
  RadioNetwork net(g, ncfg);
  FaultSchedule faults(g, plan, rng.split(0xFA).next());
  net.set_faults(&faults);
  net.attach(std::move(ptrs));
  const auto& sink = stations[0]->root_sink();
  while (sink.size() < counts.size() && net.now() < 4'000'000) net.step();

  GuardedRun out;
  Fnv fnv;
  for (const auto& d : sink) {
    fnv.word(d.slot);
    fnv.word(d.msg.origin);
    fnv.word(d.msg.seq);
    if (++counts[{d.msg.origin, d.msg.seq}] > 1) ++out.duplicates;
  }
  for (const auto& [key, c] : counts) out.missing += c == 0 ? 1 : 0;
  out.digest = fnv.value();
  out.slots = net.now();
  out.transmissions = net.metrics().transmissions;
  out.faults = net.metrics().fault_jams + net.metrics().fault_drops +
               net.metrics().fault_crashed_slots;
  return out;
}

TEST(Capture, DedupGuardKeepsExactlyOnceUnderFaults) {
  // Full capture (acks can be lost) plus jams, drops and crashes, on three
  // topology families and three seeds each: with the guard every key
  // reaches the root exactly once. The outcomes are pinned as they were
  // when the guard remembered every key it had ever accepted; keeping one
  // key per child must not change a single arrival.
  FaultPlan plan;
  plan.jam_prob = 0.05;
  plan.drop_prob = 0.05;
  plan.crash_rate = 0.03;
  plan.recover_rate = 0.3;
  plan.epoch_slots = 64;
  struct Pinned {
    const char* topo;
    std::uint64_t seed;
    std::uint64_t digest;
    SlotTime slots;
    std::uint64_t transmissions;
  };
  const Pinned pinned[] = {
      {"grid", 1, 0x14ff96418fd28d2eULL, 2067, 808},
      {"grid", 2, 0x36e01c5226563816ULL, 2403, 835},
      {"grid", 3, 0x7be334bf6875ead7ULL, 2115, 854},
      {"udg", 1, 0xcef35c680b807464ULL, 2307, 638},
      {"udg", 2, 0xac53fe75a1f87788ULL, 2835, 584},
      {"udg", 3, 0x0c56fc696dee3092ULL, 2163, 556},
      {"gnp", 1, 0xfda8c1d0cc7f8582ULL, 2235, 683},
      {"gnp", 2, 0xcd256438389c4813ULL, 3027, 778},
      {"gnp", 3, 0x8aea4a94403b6a8eULL, 2811, 729},
  };
  std::uint64_t unguarded_duplicates = 0;
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.topo) + " seed " + std::to_string(p.seed));
    Rng grng(7000 + p.seed);
    const std::string topo = p.topo;
    const Graph g =
        topo == "grid" ? gen::grid(4, 4)
        : topo == "udg"
            ? gen::unit_disk_connected(16, gen::udg_connect_radius(16), grng)
            : gen::gnp_connected(16, 0.3, grng);
    const GuardedRun r = guarded_collection(g, p.seed, plan, true);
    EXPECT_EQ(r.missing, 0u);
    EXPECT_EQ(r.duplicates, 0u);
    EXPECT_EQ(r.digest, p.digest);
    EXPECT_EQ(r.slots, p.slots);
    EXPECT_EQ(r.transmissions, p.transmissions);
    EXPECT_GT(r.faults, 0u);
    unguarded_duplicates +=
        guarded_collection(g, p.seed, plan, false).duplicates;
  }
  // The cells do lose acks: without the guard, copies reach the root.
  EXPECT_GT(unguarded_duplicates, 0u);
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
