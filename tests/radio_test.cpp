// Tests for the radio engine: the §1.1 collision rule (receive iff exactly
// one transmitting neighbor, no collision detection), multi-channel
// independence, half-duplex configuration, the mux adapters, and the
// PhaseClock slot algebra of §2.2/§3.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "graph/generators.h"
#include "radio/network.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// Transmits a fixed payload on a fixed channel in scripted slots; records
/// everything received.
class Scripted final : public Station {
 public:
  ChannelId tx_channel = 0;
  std::vector<bool> tx_slots;  // indexed by slot
  std::uint64_t payload = 0;
  std::vector<std::tuple<SlotTime, ChannelId, std::uint64_t>> received;

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (t < tx_slots.size() && tx_slots[t]) {
      Message m;
      m.payload = payload;
      tx[tx_channel] = m;
    }
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.payload);
  }

 private:
  Waker waker_;
};

struct Net {
  std::deque<Scripted> stations;
  std::unique_ptr<RadioNetwork> net;

  Net(const Graph& g, RadioNetwork::Config cfg = {}) {
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.emplace_back();
      ptrs.push_back(&stations.back());
    }
    net = std::make_unique<RadioNetwork>(g, cfg);
    net->attach(std::move(ptrs));
  }
};

TEST(RadioEngine, SingleTransmitterIsHeardByAllNeighbors) {
  const Graph g = gen::star(5);  // hub 0
  Net n(g);
  n.stations[1].tx_slots = {true};
  n.stations[1].payload = 77;
  n.net->step();
  ASSERT_EQ(n.stations[0].received.size(), 1u);
  EXPECT_EQ(std::get<2>(n.stations[0].received[0]), 77u);
  // Leaves 2..4 are not neighbors of 1.
  for (int v = 2; v <= 4; ++v) EXPECT_TRUE(n.stations[v].received.empty());
  EXPECT_EQ(n.net->metrics().deliveries, 1u);
  EXPECT_EQ(n.net->metrics().transmissions, 1u);
}

TEST(RadioEngine, TwoTransmittersCollideSilently) {
  const Graph g = gen::star(4);
  Net n(g);
  n.stations[1].tx_slots = {true};
  n.stations[2].tx_slots = {true};
  n.net->step();
  // Hub hears nothing and is NOT told a collision happened.
  EXPECT_TRUE(n.stations[0].received.empty());
  EXPECT_EQ(n.net->metrics().collision_events, 1u);
  EXPECT_EQ(n.net->metrics().deliveries, 0u);
}

TEST(RadioEngine, TransmitterDoesNotHearItself) {
  const Graph g = gen::path(2);
  Net n(g);
  n.stations[0].tx_slots = {true};
  n.net->step();
  EXPECT_TRUE(n.stations[0].received.empty());
  EXPECT_EQ(n.stations[1].received.size(), 1u);
}

TEST(RadioEngine, TransmitterCannotReceiveOnSameChannel) {
  // 0 - 1 - 2 path; 0 and 1 both transmit: 1 is busy transmitting, so it
  // misses 0's message even though 0 is its only transmitting neighbor...
  const Graph g = gen::path(3);
  Net n(g);
  n.stations[0].tx_slots = {true};
  n.stations[1].tx_slots = {true};
  n.net->step();
  EXPECT_TRUE(n.stations[1].received.empty());
  // ...while 2 hears 1 fine.
  EXPECT_EQ(n.stations[2].received.size(), 1u);
}

TEST(RadioEngine, SenderFieldIsStamped) {
  const Graph g = gen::path(2);
  // Claim a bogus sender; the radio layer must overwrite it.
  class Liar final : public Station {
   public:
    bool sends = false;
    std::vector<Message> got;
    void on_attach(Waker& w) override { waker_ = w; }
    void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
      waker_.wake();
      if (t == 0 && sends) {
        Message m;
        m.sender = 999;
        tx[0] = m;
      }
    }
    void on_receive(SlotTime, ChannelId, const Message& m) override {
      got.push_back(m);
    }

   private:
    Waker waker_;
  };
  std::deque<Liar> liars(2);
  liars[0].sends = true;
  RadioNetwork net(g);
  net.attach({&liars[0], &liars[1]});
  net.step();
  ASSERT_EQ(liars[1].got.size(), 1u);
  EXPECT_EQ(liars[1].got[0].sender, 0u);
}

TEST(RadioEngine, ChannelsAreIndependent) {
  const Graph g = gen::complete(3);
  RadioNetwork::Config cfg;
  cfg.num_channels = 2;
  Net n(g, cfg);
  n.stations[0].tx_slots = {true};
  n.stations[0].tx_channel = 0;
  n.stations[0].payload = 10;
  n.stations[1].tx_slots = {true};
  n.stations[1].tx_channel = 1;
  n.stations[1].payload = 20;
  n.net->step();
  // Node 2 listens on both channels and hears both messages.
  ASSERT_EQ(n.stations[2].received.size(), 2u);
  // Node 0 transmits on ch0, still hears ch1 (separate transceivers).
  ASSERT_EQ(n.stations[0].received.size(), 1u);
  EXPECT_EQ(std::get<1>(n.stations[0].received[0]), 1u);
  EXPECT_EQ(std::get<2>(n.stations[0].received[0]), 20u);
}

TEST(RadioEngine, StrictHalfDuplexMutesCrossChannelRx) {
  const Graph g = gen::complete(3);
  RadioNetwork::Config cfg;
  cfg.num_channels = 2;
  cfg.rx_while_tx_other = false;
  Net n(g, cfg);
  n.stations[0].tx_slots = {true};
  n.stations[0].tx_channel = 0;
  n.stations[1].tx_slots = {true};
  n.stations[1].tx_channel = 1;
  n.net->step();
  EXPECT_TRUE(n.stations[0].received.empty());
  EXPECT_TRUE(n.stations[1].received.empty());
  EXPECT_EQ(n.stations[2].received.size(), 2u);
}

TEST(RadioEngine, MetricsCount) {
  const Graph g = gen::complete(4);
  Net n(g);
  for (int v = 0; v < 3; ++v) n.stations[v].tx_slots = {true, false, true};
  n.net->run(3);
  EXPECT_EQ(n.net->metrics().slots, 3u);
  EXPECT_EQ(n.net->metrics().transmissions, 6u);
}

// --- SubStation adapters ---------------------------------------------------

/// Records its callbacks; with `transmit_always` it transmits in every
/// slot, waking for the next one where a Waker reaches it.
class EchoSub final : public SubStation {
 public:
  std::vector<SlotTime> polled, delivered_at, ticked;
  bool transmit_always = false;
  void on_attach(Waker& w) override { waker_ = &w; }
  std::optional<Message> poll(SlotTime t) override {
    polled.push_back(t);
    if (!transmit_always) return std::nullopt;
    if (waker_ != nullptr) waker_->wake();
    Message m;
    m.payload = 1;
    return m;
  }
  void deliver(SlotTime t, const Message&) override {
    delivered_at.push_back(t);
  }
  void tick(SlotTime t) override { ticked.push_back(t); }

 private:
  Waker* waker_ = nullptr;
};

TEST(Adapters, TimeDivisionSplitsSlots) {
  const Graph g = gen::path(2);
  EchoSub a0, b0, a1, b1;
  a0.transmit_always = true;  // sub 0 of node 0 transmits in its virtual slots
  TimeDivisionStation s0({&a0, &b0});
  TimeDivisionStation s1({&a1, &b1});
  RadioNetwork net(g);
  net.attach({&s0, &s1});
  net.run(6);
  // Sub a sees virtual times 0,1,2 (physical 0,2,4); sub b same (1,3,5).
  EXPECT_EQ(a0.polled, (std::vector<SlotTime>{0, 1, 2}));
  EXPECT_EQ(b0.polled, (std::vector<SlotTime>{0, 1, 2}));
  // Node 1's sub a heard node 0's sub a (physical even slots only).
  EXPECT_EQ(a1.delivered_at.size(), 3u);
  EXPECT_TRUE(b1.delivered_at.empty());
}

TEST(Adapters, ChannelMuxRoutesByChannel) {
  const Graph g = gen::path(2);
  EchoSub a0, b0, a1, b1;
  b0.transmit_always = true;  // node 0 transmits on channel 1
  ChannelMuxStation s0({&a0, &b0});
  ChannelMuxStation s1({&a1, &b1});
  RadioNetwork::Config cfg;
  cfg.num_channels = 2;
  RadioNetwork net(g, cfg);
  net.attach({&s0, &s1});
  net.run(4);
  EXPECT_TRUE(a1.delivered_at.empty());
  EXPECT_EQ(b1.delivered_at.size(), 4u);
  EXPECT_EQ(a0.polled.size(), 4u);  // both subs advance every slot
}

// --- PhaseClock ------------------------------------------------------------

TEST(PhaseClock, FullStructureDecodes) {
  SlotStructure s;
  s.decay_len = 4;
  s.ack_subslots = true;
  s.mod3_gating = true;
  PhaseClock c(s);
  EXPECT_EQ(c.slots_per_phase(), 4u * 3 * 2);

  // Slot 0: phase 0, step 0, residue 0, data.
  auto i0 = c.decode(0);
  EXPECT_EQ(i0.phase, 0u);
  EXPECT_EQ(i0.decay_step, 0u);
  EXPECT_EQ(i0.residue, 0u);
  EXPECT_FALSE(i0.is_ack);
  // Slot 1: its ack twin.
  auto i1 = c.decode(1);
  EXPECT_TRUE(i1.is_ack);
  EXPECT_EQ(i1.residue, 0u);
  EXPECT_EQ(i1.decay_step, 0u);
  // Slot 2: residue 1 data.
  auto i2 = c.decode(2);
  EXPECT_FALSE(i2.is_ack);
  EXPECT_EQ(i2.residue, 1u);
  // After all residues, the decay step advances.
  auto i6 = c.decode(6);
  EXPECT_EQ(i6.decay_step, 1u);
  EXPECT_EQ(i6.residue, 0u);
  // A full phase later.
  auto ip = c.decode(c.slots_per_phase());
  EXPECT_EQ(ip.phase, 1u);
  EXPECT_EQ(ip.decay_step, 0u);
}

TEST(PhaseClock, LevelGating) {
  SlotStructure s;
  s.decay_len = 2;
  PhaseClock c(s);
  const auto data_r1 = c.decode(2);  // residue 1 data slot
  EXPECT_TRUE(c.level_may_send_data(data_r1, 1));
  EXPECT_TRUE(c.level_may_send_data(data_r1, 4));
  EXPECT_FALSE(c.level_may_send_data(data_r1, 0));
  EXPECT_FALSE(c.level_may_send_data(data_r1, 2));
  const auto ack = c.decode(3);
  EXPECT_FALSE(c.level_may_send_data(ack, 1));
}

TEST(PhaseClock, NoGatingNoAcks) {
  SlotStructure s;
  s.decay_len = 6;
  s.ack_subslots = false;
  s.mod3_gating = false;
  PhaseClock c(s);
  EXPECT_EQ(c.slots_per_phase(), 6u);
  for (SlotTime t = 0; t < 12; ++t) {
    const auto i = c.decode(t);
    EXPECT_FALSE(i.is_ack);
    EXPECT_TRUE(c.level_may_send_data(i, t % 7));
    EXPECT_EQ(i.phase, t / 6);
    EXPECT_EQ(i.decay_step, t % 6);
  }
}

TEST(PhaseClock, EveryLevelGetsEveryDecayStepOncePerPhase) {
  SlotStructure s;
  s.decay_len = 4;
  PhaseClock c(s);
  for (std::uint32_t level = 0; level < 5; ++level) {
    std::vector<int> step_seen(4, 0);
    for (SlotTime t = 0; t < c.slots_per_phase(); ++t) {
      const auto i = c.decode(t);
      if (c.level_may_send_data(i, level)) ++step_seen[i.decay_step];
    }
    for (int cnt : step_seen) EXPECT_EQ(cnt, 1);
  }
}

TEST(PhaseClock, NextDataSlotMatchesAScanOfLevelMaySendData) {
  for (const bool acks : {false, true}) {
    for (const bool gating : {false, true}) {
      for (const std::uint32_t len : {2u, 3u, 8u}) {
        SlotStructure s;
        s.decay_len = len;
        s.ack_subslots = acks;
        s.mod3_gating = gating;
        const PhaseClock c(s);
        for (std::uint32_t level = 0; level <= 5; ++level) {
          for (SlotTime t = 0; t <= 500; ++t) {
            SlotTime want = t + 1;
            while (!c.level_may_send_data(c.decode(want), level)) ++want;
            ASSERT_EQ(c.next_data_slot(t, level), want)
                << "acks " << acks << " gating " << gating << " len " << len
                << " level " << level << " t " << t;
          }
        }
      }
    }
  }
}

TEST(PhaseClock, PhaseStartIsTheFirstSlotOfThePhase) {
  SlotStructure s;
  s.decay_len = 3;
  const PhaseClock c(s);
  EXPECT_EQ(c.phase_start(0), 0u);
  for (std::uint64_t p = 1; p < 20; ++p) {
    EXPECT_EQ(c.decode(c.phase_start(p)).phase, p);
    EXPECT_EQ(c.decode(c.phase_start(p) - 1).phase, p - 1);
  }
}

// --- Divide-free slot arithmetic --------------------------------------------

/// The plain `/` and `%` decomposition of the slot layout, as PhaseClock
/// computed it before it went divide-free.
PhaseClock::SlotInfo reference_decode(const SlotStructure& s, SlotTime t) {
  PhaseClock::SlotInfo info;
  std::uint64_t u = t;
  if (s.ack_subslots) {
    info.is_ack = u % 2 == 1;
    u /= 2;
  }
  if (s.mod3_gating) {
    info.residue = static_cast<std::uint32_t>(u % 3);
    u /= 3;
  }
  info.decay_step = static_cast<std::uint32_t>(u % s.decay_len);
  info.phase = u / s.decay_len;
  return info;
}

SlotTime reference_next_data_slot(const SlotStructure& s, SlotTime t,
                                  std::uint32_t level) {
  const SlotTime a = s.ack_subslots ? 2 : 1;
  const SlotTime r = s.mod3_gating ? 3 : 1;
  const SlotTime period = a * r;
  const SlotTime offset = a * (level % r);
  const SlotTime from = t + 1;
  return from + (offset + period - from % period) % period;
}

/// Random dividends over every magnitude, plus the 32- and 64-bit edges.
std::vector<std::uint64_t> test_dividends(Rng& rng) {
  std::vector<std::uint64_t> out{0,
                                 (std::uint64_t{1} << 32) - 1,
                                 std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 32) + 1,
                                 std::uint64_t{1} << 63,
                                 ~std::uint64_t{0} - 1};
  for (int i = 0; i < 400; ++i) out.push_back(rng.next() >> rng.next_below(64));
  return out;
}

TEST(PhaseClock, DivideFreeArithmeticMatchesPlainDivision) {
  Rng rng(0xD1F);
  const std::vector<std::uint64_t> ts = test_dividends(rng);
  for (const bool acks : {false, true}) {
    for (const bool gating : {false, true}) {
      for (const std::uint32_t len : {2u, 3u, 8u, 14u, 64u}) {
        SlotStructure s;
        s.decay_len = len;
        s.ack_subslots = acks;
        s.mod3_gating = gating;
        const PhaseClock c(s);
        const std::uint64_t per =
            std::uint64_t{len} * (acks ? 2 : 1) * (gating ? 3 : 1);
        ASSERT_EQ(c.slots_per_phase(), per);
        for (const SlotTime t : ts) {
          const auto got = c.decode(t);
          const auto want = reference_decode(s, t);
          ASSERT_EQ(got.phase, want.phase) << "len " << len << " t " << t;
          ASSERT_EQ(got.decay_step, want.decay_step) << "t " << t;
          ASSERT_EQ(got.residue, want.residue) << "t " << t;
          ASSERT_EQ(got.is_ack, want.is_ack) << "t " << t;
          ASSERT_EQ(c.phase_start(got.phase), want.phase * per) << "t " << t;
          for (std::uint32_t level = 0; level <= 5; ++level)
            ASSERT_EQ(c.next_data_slot(t, level),
                      reference_next_data_slot(s, t, level))
                << "acks " << acks << " gating " << gating << " len " << len
                << " level " << level << " t " << t;
        }
      }
    }
  }
}

TEST(FixedDivisor, MatchesPlainDivisionForEveryDivisorUpTo1025) {
  Rng rng(0xF1D);
  std::vector<std::uint64_t> ns = test_dividends(rng);
  ns.push_back(~std::uint64_t{0});
  for (std::uint64_t d = 1; d <= 1025; ++d) {
    const FixedDivisor f(d);
    ASSERT_EQ(f.divisor(), d);
    // Around the divisor and around the end of the exact range.
    const std::uint64_t limit = ~std::uint64_t{0} / d;
    std::vector<std::uint64_t> edges{1, d - 1, d, d + 1, 2 * d - 1,
                                     limit - 1, limit, limit + 1};
    for (const std::vector<std::uint64_t>* v : {&ns, &edges}) {
      for (const std::uint64_t n : *v) {
        ASSERT_EQ(f.div(n), n / d) << "n " << n << " d " << d;
        ASSERT_EQ(f.mod(n), n % d) << "n " << n << " d " << d;
      }
    }
  }
}

}  // namespace
}  // namespace radiomc
