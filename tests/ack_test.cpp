// Theorem 3.1 — the deterministic acknowledgement mechanism.
//
// "Let v be a node that received a message from node u using the above
// protocol; then u receives an acknowledgement."
//
// We test it three ways:
//  1. the exact Figure 1 scenario from the proof, exhaustively over who
//     transmits;
//  2. a randomized property sweep: arbitrary graphs, arbitrary sender sets
//     with designated neighbor receivers (the theorem's precondition:
//     distinct destinations among simultaneously received messages), the
//     invariant checked after every data/ack slot pair;
//  3. end-to-end through the collection protocol: messages are never lost
//     and never duplicated (exactly-once), which is precisely what the
//     theorem buys (§4.1: "messages exist on exactly one buffer").
//
// Apart from the theorem, the sender's sleep across the ack is checked:
// the pop of its head leaves no poll behind at the slot it had armed.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// Raw §3 mechanics: in slot 0 every sender transmits a data message
/// "designated to" its chosen receiver; in slot 1 every node that received
/// a message designated to it transmits an ack naming the data's sender.
class AckProbe final : public Station {
 public:
  NodeId me = 0;
  bool sends = false;
  NodeId designated = kNoNode;  // receiver of my data message

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

struct AckWorld {
  std::deque<AckProbe> probes;
  std::unique_ptr<RadioNetwork> net;

  explicit AckWorld(const Graph& g) {
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      probes.emplace_back();
      probes.back().me = v;
      ptrs.push_back(&probes.back());
    }
    net = std::make_unique<RadioNetwork>(g);
    net->attach(std::move(ptrs));
  }

  void run_pair() { net->run(2); }

  /// The Theorem 3.1 invariant.
  void check_invariant() const {
    for (const auto& p : probes) {
      if (!p.sends) continue;
      const AckProbe& receiver = probes[p.designated];
      if (receiver.got_data && receiver.data_from == p.me) {
        EXPECT_TRUE(p.got_ack)
            << "sender " << p.me << " -> " << p.designated
            << " was received but not acknowledged";
      }
    }
  }
};

TEST(AckTheorem, Figure1ScenarioExhaustive) {
  // Figure 1: u - v, u' - v', and the cross edges u - v' and u' - v that
  // make the proof's contradiction bite. Nodes: u=0, v=1, u'=2, v'=3.
  const Graph g(4, {{0, 1}, {2, 3}, {0, 3}, {2, 1}});
  // Exhaust all subsets of {u, u'} transmitting to their designated nodes.
  for (int mask = 1; mask < 4; ++mask) {
    AckWorld w(g);
    if (mask & 1) {
      w.probes[0].sends = true;
      w.probes[0].designated = 1;
    }
    if (mask & 2) {
      w.probes[2].sends = true;
      w.probes[2].designated = 3;
    }
    w.run_pair();
    w.check_invariant();
    if (mask == 3) {
      // Both transmit: v and v' each have two transmitting neighbors, so
      // neither receives — the conflict case the proof rules out.
      EXPECT_FALSE(w.probes[1].got_data);
      EXPECT_FALSE(w.probes[3].got_data);
    } else {
      // A single transmitter is always received and always acknowledged.
      const NodeId rx = (mask == 1) ? 1 : 3;
      const NodeId snd = (mask == 1) ? 0 : 2;
      EXPECT_TRUE(w.probes[rx].got_data);
      EXPECT_TRUE(w.probes[snd].got_ack);
    }
  }
}

class AckProperty : public ::testing::TestWithParam<int> {};

TEST_P(AckProperty, RandomScenariosSatisfyTheorem) {
  Rng rng(5000 + GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    const NodeId n = static_cast<NodeId>(6 + rng.next_below(20));
    const Graph g = gen::gnp_connected(n, 0.25, rng);

    // Random sender set with designated neighbor receivers. The theorem's
    // precondition: distinct destinations of *successfully received*
    // messages — guaranteed by making all designated receivers distinct
    // and non-senders.
    AckWorld w(g);
    std::set<NodeId> used;
    for (NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(0.4)) continue;
      if (used.contains(v)) continue;
      const auto nb = g.neighbors(v);
      std::vector<NodeId> candidates;
      for (NodeId u : nb)
        if (!used.contains(u) && !w.probes[u].sends) candidates.push_back(u);
      if (candidates.empty()) continue;
      const NodeId dest = candidates[rng.next_below(candidates.size())];
      if (w.probes[dest].sends) continue;
      w.probes[v].sends = true;
      w.probes[v].designated = dest;
      used.insert(v);
      used.insert(dest);
    }
    w.run_pair();
    w.check_invariant();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckProperty, ::testing::Range(0, 5));

// End-to-end: collection with acks is exactly-once even under heavy
// contention (many messages, dense graph).
class CollectionExactlyOnce : public ::testing::TestWithParam<int> {};

TEST_P(CollectionExactlyOnce, NoLossNoDuplication) {
  Rng rng(7000 + GetParam());
  const Graph g = gen::gnp_connected(24, 0.3, rng);
  const BfsTree tree = oracle_bfs_tree(g, 0);

  std::vector<Message> init;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = s;
      m.payload = v * 100 + s;
      init.push_back(m);
    }
  }
  const auto out = run_collection(g, tree, init,
                                  CollectionConfig::for_graph(g),
                                  900 + GetParam());
  ASSERT_TRUE(out.completed);
  std::map<std::pair<NodeId, std::uint32_t>, int> counts;
  for (const auto& d : out.deliveries)
    ++counts[{d.msg.origin, d.msg.seq}];
  EXPECT_EQ(counts.size(), init.size());
  for (const auto& [key, c] : counts) EXPECT_EQ(c, 1);
  // Payload integrity.
  for (const auto& d : out.deliveries)
    EXPECT_EQ(d.msg.payload, d.msg.origin * 100 + d.msg.seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectionExactlyOnce, ::testing::Range(0, 6));

// Sleeping (protocols/acked_hop.h): the ack that pops the head reaches a
// sleeping sender, and the data slot the sender armed at the end of its
// sending slot would then be a silent poll. The pop cancels that arm.

/// SingleStation that logs its polls and data transmissions.
class LoggedStation final : public Station {
 public:
  explicit LoggedStation(SubStation& sub) : inner_(sub) {}
  void on_attach(Waker& w) override { inner_.on_attach(w); }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    polls.push_back(t);
    inner_.on_slot(t, tx);
    if (tx[0] && tx[0]->kind == MsgKind::kData) data_tx.push_back(t);
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    inner_.on_receive(t, ch, m);
  }
  void on_slot_end(SlotTime t) override { inner_.on_slot_end(t); }

  std::vector<SlotTime> polls, data_tx;

 private:
  SingleStation inner_;
};

TEST(AckedHopSleep, PoppedHeadBuysNoPollAtItsArmedSlot) {
  // A 2-node path: the leaf holds eight messages for the root. It is the
  // only data sender, so every copy is heard the first time and acked in
  // the next subslot, which pops the head while the leaf sleeps. The leaf
  // is then polled only where it transmits: never at the data slot it
  // armed for the popped head (where its coin let the Decay live on), and
  // next at the first data slot of the following phase, where the next
  // head begins its invocation.
  const Graph g = gen::path(2);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const CollectionConfig cfg = CollectionConfig::for_graph(g);
  CollectionStation root(0, tree, cfg, Rng(1));
  CollectionStation leaf(1, tree, cfg, Rng(2));
  constexpr std::uint32_t kMessages = 8;
  for (std::uint32_t s = 0; s < kMessages; ++s) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = 1;
    m.seq = s;
    leaf.inject(m);
  }
  LoggedStation a(root), b(leaf);
  RadioNetwork net(g);
  net.attach({&a, &b});
  const PhaseClock& c = leaf.clock();
  net.run((kMessages + 2) * c.slots_per_phase());

  ASSERT_EQ(root.root_sink().size(), kMessages);
  ASSERT_EQ(b.data_tx.size(), kMessages);
  std::vector<SlotTime> want{0};
  want.insert(want.end(), b.data_tx.begin(), b.data_tx.end());
  EXPECT_EQ(b.polls, want);
  for (std::size_t i = 0; i + 1 < b.data_tx.size(); ++i) {
    const std::uint64_t phase = c.decode(b.data_tx[i]).phase;
    EXPECT_EQ(b.data_tx[i + 1],
              c.next_data_slot(c.phase_start(phase + 1) - 1, /*level=*/1))
        << "message " << i + 1;
  }
}

}  // namespace
}  // namespace radiomc
