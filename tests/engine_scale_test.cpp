// Scaled-down million-node smoke test (slow-labeled): a Decay broadcast
// (§2, the BGI primitive) over a 10^5-node sparse G(n, p), written
// active-set-natively — uninformed stations sleep until the message
// reaches them, informed stations sleep between their Decay coin flips —
// and required to (a) inform every station inside a fixed slot budget and
// (b) do so with far fewer station polls than the legacy
// poll-everyone-every-slot engine would have spent. The n = 10^6 variants
// live in bench_micro (they measure throughput, not coverage); this test
// is the CI-sized proof that the active-set machinery scales in the way
// the bench numbers claim.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "graph/generators.h"
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// One Decay round is ceil(log2 n) + 1 slots (§2: halving the expected
/// number of transmitters each slot needs log n halvings).
constexpr SlotTime kRoundLen = 18;

/// Decay-broadcast relay. Informed stations transmit at each round start
/// and keep transmitting with probability 1/2 per slot (self-waking while
/// their coin lives, sleeping once it dies); the driver re-wakes all
/// informed stations at every round boundary. Uninformed stations sleep
/// from slot 1 until the message arrives.
class DecayRelay : public Station {
 public:
  DecayRelay(NodeId self, bool source, Rng rng,
             std::vector<NodeId>* informed_list)
      : self_(self), informed_(source), rng_(rng),
        informed_list_(informed_list) {
    if (source) informed_list_->push_back(self);
  }

  void on_attach(Waker& w) override { waker_ = &w; }

  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (!informed_) return;  // nothing to relay; fall asleep again
    if (t % kRoundLen == 0) transmitting_ = true;
    if (!transmitting_) return;
    Message m;
    m.kind = MsgKind::kBcastData;
    m.origin = 0;
    m.seq = 1;
    tx[0] = m;
    if (rng_.bernoulli(0.5)) {
      waker_->wake();  // coin lives: transmit again next slot
    } else {
      transmitting_ = false;  // coin died: sleep until the next round
    }
  }

  void on_receive(SlotTime t, ChannelId, const Message&) override {
    if (informed_) return;
    informed_ = true;
    informed_at = t;
    // No wake: Decay is round-synchronous, so the station (correctly)
    // stays quiet until the driver's next round-boundary wake.
    informed_list_->push_back(self_);
  }

  bool informed() const noexcept { return informed_; }
  SlotTime informed_at = 0;

 private:
  NodeId self_;
  bool informed_;
  bool transmitting_ = false;
  Rng rng_;
  std::vector<NodeId>* informed_list_;
  Waker* waker_ = nullptr;
};

TEST(EngineScale, ActiveSetDecayBroadcastCovers100kNodesWithinBudget) {
  const NodeId kN = 100000;
  const SlotTime kBudget = 3000;  // ~166 Decay rounds
  Rng rng(0x5CA1E);

  // Mean degree 16 > ln(10^5) ~ 11.5, so the O(n + m) sampler connects
  // within a few attempts.
  const Graph g = gen::gnp_sparse_connected(kN, 16.0 / kN, rng);

  std::vector<NodeId> informed_list;
  informed_list.reserve(kN);
  std::deque<DecayRelay> stations;
  std::vector<Station*> ptrs;
  ptrs.reserve(kN);
  for (NodeId v = 0; v < kN; ++v) {
    stations.emplace_back(v, v == 0, rng.split(v), &informed_list);
    ptrs.push_back(&stations.back());
  }

  RadioNetwork net(g);
  net.attach(ptrs);

  SlotTime slots_used = 0;
  while (slots_used < kBudget && informed_list.size() < kN) {
    if (slots_used % kRoundLen == 0) {
      // Round boundary: re-admit every informed relay for the next round.
      // (Index loop, not iterators: on_receive appends during step().)
      for (std::size_t i = 0; i < informed_list.size(); ++i)
        net.wake_station(informed_list[i]);
    }
    net.step();
    ++slots_used;
  }

  EXPECT_EQ(informed_list.size(), kN)
      << "broadcast did not cover the graph in " << kBudget << " slots";
  EXPECT_LT(slots_used, kBudget);
  EXPECT_GE(net.metrics().deliveries, static_cast<std::uint64_t>(kN) - 1);

  // The active-set payoff: the legacy engine would have spent
  // n * slots_used polls; the rewrite must spend a small fraction of that
  // (uninformed stations sleep, informed ones average ~2 awake slots per
  // 18-slot round plus the round-boundary poll).
  const std::uint64_t legacy_polls =
      static_cast<std::uint64_t>(kN) * slots_used;
  EXPECT_LT(net.engine_stats().station_polls, legacy_polls / 4);
  EXPECT_GT(net.engine_stats().station_polls, 0u);
  EXPECT_GT(net.engine_stats().wake_events, 0u);

  // Every station was informed strictly after its BFS-distance-0 source.
  for (NodeId v = 1; v < kN; ++v)
    EXPECT_TRUE(stations[v].informed());
}

}  // namespace
}  // namespace radiomc
