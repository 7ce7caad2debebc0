// Randomized engine-invariant property tests for the active-set
// RadioNetwork. Where engine_diff_test.cpp proves the rewrite equals the
// frozen reference byte-for-byte, this suite checks that both of them
// compute the *model* of §1.1 — properties stated directly against the
// paper's semantics, verified on the event stream of randomized runs:
//
//   * every delivery is explained by exactly one transmitting neighbor of
//     the receiver, on that channel, in that same slot, carrying that very
//     message (which also rules out any cross-slot leakage of the
//     per-slot rx cells: a stale cell would surface as a delivery with
//     no same-slot transmitter);
//   * every collision event has >= 2 transmitting neighbors (fault-free
//     runs; jams are the txn == 1 case and only exist under a plan);
//   * deliveries are bounded by the transmitters' degrees (the radio
//     analogue of "deliveries <= transmissions": one transmission can be
//     heard by at most deg(sender) stations);
//   * crashed stations never transmit and never receive, checked against
//     the fault schedule's per-slot alive view;
//   * active-set membership is exactly "woken for this slot, or one of
//     its handles' timers came due", frozen while crashed; a cancel
//     disarms one handle's timer only; transmitting buys no poll —
//     predicted by an independent model in the test and compared against
//     both the stations' observed polls and RadioNetwork::station_active;
//   * run(k), which skips idle slots, equals k calls of step() in
//     NetMetrics, EngineStats, trace and end state, and a slot hook is
//     still pulsed in every slot; run_until stops where a step() loop
//     testing its target, end and watchdog after every slot stops.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/generators.h"
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// Random transmitter, polled in every slot (it wakes on each poll).
class Chatter : public Station {
 public:
  Chatter(NodeId self, ChannelId channels, double tx_prob, Rng rng)
      : self_(self), channels_(channels), tx_prob_(tx_prob), rng_(rng) {}

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (!rng_.bernoulli(tx_prob_)) return;
    Message m;
    m.origin = self_;
    m.seq = seq_++;
    tx[rng_.next_below(channels_)] = m;
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq);
  }

  std::vector<std::tuple<SlotTime, ChannelId, NodeId, std::uint32_t>> received;

 private:
  NodeId self_;
  ChannelId channels_;
  double tx_prob_;
  Rng rng_;
  std::uint32_t seq_ = 0;
  Waker waker_;
};

Graph make_graph(int which, Rng& rng) {
  switch (which % 4) {
    case 0:
      return gen::grid(6, 7);
    case 1:
      return gen::gnp_connected(48, 0.12, rng);
    case 2:
      return gen::star(20);
    default:
      return gen::unit_disk_connected(40, gen::udg_connect_radius(40), rng);
  }
}

TEST(EngineInvariants, EveryDeliveryHasExactlyOneSameSlotTransmittingNeighbor) {
  Rng rng(0x1A7E57);
  for (int round = 0; round < 8; ++round) {
    const Graph g = make_graph(round, rng);
    const ChannelId channels = 1 + round % 2;

    std::deque<Chatter> stations;
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.emplace_back(v, channels, 0.2, rng.split(v));
      ptrs.push_back(&stations.back());
    }

    RadioNetwork::Config cfg;
    cfg.num_channels = channels;
    RadioNetwork net(g, cfg);
    EventRecorder rec;
    net.set_trace(&rec);
    net.attach(ptrs);
    net.run(250);
    ASSERT_FALSE(rec.truncated());

    // Index transmissions by (slot, channel) -> {sender -> (origin, seq)}.
    std::map<std::pair<SlotTime, ChannelId>,
             std::map<NodeId, std::pair<NodeId, std::uint32_t>>>
        tx_at;
    for (const auto& e : rec.events())
      if (e.kind == EventRecorder::Kind::kTransmit)
        tx_at[{e.slot, e.channel}][e.node] = {e.origin, e.seq};

    std::uint64_t deliveries_checked = 0;
    for (const auto& e : rec.events()) {
      if (e.kind == EventRecorder::Kind::kDeliver) {
        const auto& senders = tx_at[{e.slot, e.channel}];
        std::uint32_t tx_neighbors = 0;
        bool msg_matches = false;
        for (const NodeId u : g.neighbors(e.node)) {
          const auto it = senders.find(u);
          if (it == senders.end()) continue;
          ++tx_neighbors;
          msg_matches = it->second == std::make_pair(e.origin, e.seq);
        }
        EXPECT_EQ(tx_neighbors, 1u)
            << "delivery to " << e.node << " at slot " << e.slot;
        EXPECT_TRUE(msg_matches)
            << "delivered message does not match the unique transmitter";
        ++deliveries_checked;
      } else if (e.kind == EventRecorder::Kind::kCollision) {
        // Fault-free: every collision event must be a genuine collision.
        EXPECT_GE(e.tx_neighbors, 2u);
        std::uint32_t tx_neighbors = 0;
        const auto& senders = tx_at[{e.slot, e.channel}];
        for (const NodeId u : g.neighbors(e.node))
          tx_neighbors += senders.count(u) != 0 ? 1 : 0;
        EXPECT_EQ(tx_neighbors, e.tx_neighbors)
            << "collision fan-in mismatch at node " << e.node;
      }
    }
    EXPECT_GT(deliveries_checked, 0u) << "round " << round << " was vacuous";
    EXPECT_EQ(deliveries_checked, net.metrics().deliveries);

    // Degree bound: each transmission reaches at most deg(sender) listeners.
    std::uint64_t degree_budget = 0;
    for (const auto& e : rec.events())
      if (e.kind == EventRecorder::Kind::kTransmit)
        degree_budget += g.degree(e.node);
    EXPECT_LE(net.metrics().deliveries + net.metrics().collision_events,
              degree_budget * channels);
    EXPECT_LE(net.metrics().capture_deliveries, net.metrics().deliveries);
  }
}

TEST(EngineInvariants, CrashedStationsNeverTransmitOrReceive) {
  Rng rng(0xC4A5);
  for (int round = 0; round < 6; ++round) {
    const Graph g = make_graph(round, rng);

    std::deque<Chatter> stations;
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.emplace_back(v, 1, 0.3, rng.split(v));
      ptrs.push_back(&stations.back());
    }

    FaultPlan plan;
    plan.crash_rate = 0.08;
    plan.recover_rate = 0.3;
    plan.epoch_slots = 8;

    RadioNetwork net(g);
    FaultSchedule faults(g, plan, 0xFA + round);
    EventRecorder rec;
    net.set_faults(&faults);
    net.set_trace(&rec);
    net.attach(ptrs);

    // Step manually so the alive view can be snapshotted per slot (the
    // schedule's Markov chains are advanced inside step(), so after step()
    // the state is exactly the one slot t was simulated under).
    const SlotTime kSlots = 400;
    std::vector<std::vector<std::uint8_t>> alive(kSlots);
    std::uint64_t crashed_slot_pairs = 0;
    for (SlotTime t = 0; t < kSlots; ++t) {
      net.step();
      alive[t].resize(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        alive[t][v] = faults.node_alive(v) ? 1 : 0;
        crashed_slot_pairs += alive[t][v] ? 0 : 1;
      }
    }
    ASSERT_FALSE(rec.truncated());

    std::uint64_t events_on_crashed = 0;
    for (const auto& e : rec.events()) {
      if (e.kind != EventRecorder::Kind::kTransmit &&
          e.kind != EventRecorder::Kind::kDeliver &&
          e.kind != EventRecorder::Kind::kCollision)
        continue;
      if (!alive[e.slot][e.node]) ++events_on_crashed;
    }
    EXPECT_EQ(events_on_crashed, 0u) << "round " << round;
    EXPECT_EQ(net.metrics().fault_crashed_slots, crashed_slot_pairs);
    // The plan must actually have bitten, or the round proves nothing.
    EXPECT_GT(crashed_slot_pairs, 0u) << "round " << round << " was vacuous";

    // Crash freezes active-set membership; recovery must find the station
    // runnable again (all-Chatter population: everyone wakes on each poll).
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_TRUE(net.station_active(v));
  }
}

/// Station with a scripted behavior: transmits at slots in
/// `tx_slots`, calls wake() at slots in `wake_slots`, cancels the timers
/// of the handles in the mask keyed in `cancels` (1: the engine's handle,
/// 2: a second handle with its own timer, taken at attach), then arms
/// wake_at(target) at the slots keyed in `arms` (engine's handle) and
/// `aux_arms` (the second handle); all tested only when actually polled.
/// Records every poll.
class Scripted : public Station {
 public:
  Scripted(NodeId self, std::set<SlotTime> tx_slots,
           std::set<SlotTime> wake_slots, std::map<SlotTime, SlotTime> arms,
           std::map<SlotTime, SlotTime> aux_arms = {},
           std::map<SlotTime, int> cancels = {})
      : self_(self), tx_slots_(std::move(tx_slots)),
        wake_slots_(std::move(wake_slots)), arms_(std::move(arms)),
        aux_arms_(std::move(aux_arms)), cancels_(std::move(cancels)) {}

  void on_attach(Waker& w) override {
    waker_ = &w;
    aux_ = w.own_timer();
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    polls.push_back(t);
    if (tx_slots_.count(t) != 0) {
      Message m;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t);
      tx[0] = m;
    }
    if (wake_slots_.count(t) != 0) waker_->wake();
    if (const auto it = cancels_.find(t); it != cancels_.end()) {
      if (it->second & 1) waker_->cancel();
      if (it->second & 2) aux_.cancel();
    }
    if (const auto it = arms_.find(t); it != arms_.end())
      waker_->wake_at(it->second);
    if (const auto it = aux_arms_.find(t); it != aux_arms_.end())
      aux_.wake_at(it->second);
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    received.emplace_back(t, m.origin, m.seq);
  }
  /// The station's handle, for driver-level wakes between slots.
  Waker& waker() { return *waker_; }

  std::vector<SlotTime> polls;
  std::vector<std::tuple<SlotTime, NodeId, std::uint32_t>> received;

 private:
  NodeId self_;
  std::set<SlotTime> tx_slots_, wake_slots_;
  std::map<SlotTime, SlotTime> arms_, aux_arms_;
  std::map<SlotTime, int> cancels_;
  Waker* waker_ = nullptr;
  Waker aux_;
};

TEST(EngineInvariants, ActiveSetMembershipIsWakeOrTimerExactly) {
  // Randomized scripts on a path graph; the test predicts the poll
  // schedule of every station with an independent model of the contract:
  //   polled at 0 (everyone starts active); polled at t+1 iff polled at t
  //   and woke at t (wake_at(t' <= t+1) is a wake; transmitting at t
  //   counts for nothing), or an external wake arrived during slot t;
  //   admitted at t by either of its two handles' timers, each of which
  //   holds the earliest time armed on that handle since it last fired or
  //   was cancelled; a cancel on one handle leaves the other's timer.
  // Odd rounds add crash churn: a crashed member is not polled and stays a
  // member (frozen), and a timer firing on a crashed station admits it
  // into that frozen membership, so it is polled on recovery.
  Rng rng(0x5C21);
  Rng aux_rng(0x5C22);  // second-handle arms and cancels
  const SlotTime kSlots = 120;
  constexpr SlotTime kNone = ~SlotTime{0};
  // Coverage of the timer cases, summed over all rounds.
  std::uint64_t fired = 0, fired_on_crashed = 0, dropped_later = 0,
                lowered = 0, immediate = 0, aux_fired = 0, cancelled = 0,
                cancel_spared = 0;
  for (int round = 0; round < 10; ++round) {
    const Graph g = gen::path(24);
    const NodeId n = g.num_nodes();
    // Every third round arms aligned "phase start" timers, so crowds of
    // stations join at once.
    const bool aligned = round % 3 == 2;
    std::deque<Scripted> stations;
    std::vector<Station*> ptrs;
    std::vector<std::set<SlotTime>> tx_of(n), wake_of(n);
    std::vector<std::array<std::map<SlotTime, SlotTime>, 2>> arms_of(n);
    std::vector<std::map<SlotTime, int>> cancels_of(n);
    for (NodeId v = 0; v < n; ++v) {
      std::set<SlotTime> tx, wake;
      std::map<SlotTime, SlotTime> arms, aux_arms;
      std::map<SlotTime, int> cancels;
      for (SlotTime t = 0; t < kSlots; ++t) {
        if (rng.bernoulli(0.25)) tx.insert(t);
        if (rng.bernoulli(0.15)) wake.insert(t);
        // Targets from one slot in the past to 15 ahead: the past, now and
        // the next slot are plain wakes, the rest arm the timer.
        if (aligned && rng.bernoulli(0.6)) {
          arms[t] = (t / 8 + 1) * 8;
        } else if (rng.bernoulli(0.3)) {
          arms[t] = t + rng.next_below(17) - (t > 0);
        }
        if (aux_rng.bernoulli(0.3))
          aux_arms[t] = t + aux_rng.next_below(17) - (t > 0);
        if (aux_rng.bernoulli(0.15))
          cancels[t] = 1 + static_cast<int>(aux_rng.next_below(3));
      }
      tx_of[v] = tx;
      wake_of[v] = wake;
      arms_of[v] = {arms, aux_arms};
      cancels_of[v] = cancels;
      stations.emplace_back(v, tx, wake, arms, aux_arms, cancels);
      ptrs.push_back(&stations.back());
    }
    // A few driver-level wakes, exercising wake_station between slots.
    std::vector<std::pair<SlotTime, NodeId>> driver_wakes;
    for (int i = 0; i < 6; ++i)
      driver_wakes.emplace_back(rng.next_below(kSlots),
                                static_cast<NodeId>(rng.next_below(n)));
    std::sort(driver_wakes.begin(), driver_wakes.end());

    FaultPlan plan;
    if (round % 2 == 1) {
      plan.crash_rate = 0.1;
      plan.recover_rate = 0.3;
      plan.epoch_slots = 6;
    }
    // The alive view depends on the schedule alone: a twin precomputes it.
    std::vector<std::vector<std::uint8_t>> alive(kSlots);
    {
      FaultSchedule twin(g, plan, 0x7113 + round);
      for (SlotTime t = 0; t < kSlots; ++t) {
        twin.begin_slot(t);
        for (NodeId v = 0; v < n; ++v)
          alive[t].push_back(twin.node_alive(v) ? 1 : 0);
      }
    }

    RadioNetwork net(g);
    FaultSchedule faults(g, plan, 0x7113 + round);
    net.set_faults(&faults);
    net.attach(ptrs);

    // Independent prediction: polled at t iff active at t and alive;
    // retained after slot t iff it self-woke at t, or is crashed; active
    // at t+1 = retained union driver wakes delivered between t and t+1
    // union timers due at t+1. (Pending wakes and timers are admitted at
    // the next begin_slot, so station_active right after step(t) reflects
    // `retained`, not yet them.)
    std::vector<std::vector<SlotTime>> expected(n);
    std::vector<std::vector<std::uint8_t>> retained_at(kSlots);
    {
      std::vector<std::uint8_t> active(n, 1);
      std::vector<std::array<SlotTime, 2>> timer(n, {kNone, kNone});
      for (SlotTime t = 0; t < kSlots; ++t) {
        for (NodeId v = 0; v < n; ++v) {
          for (int h = 0; h < 2; ++h) {
            if (timer[v][h] != t) continue;
            timer[v][h] = kNone;
            active[v] = 1;
            ++(h == 0 ? fired : aux_fired);
            fired_on_crashed += alive[t][v] ? 0 : 1;
          }
        }
        retained_at[t].assign(n, 0);
        for (NodeId v = 0; v < n; ++v) {
          if (!active[v]) continue;
          if (!alive[t][v]) {
            retained_at[t][v] = 1;
            continue;
          }
          expected[v].push_back(t);
          bool keep = wake_of[v].count(t) != 0;
          if (const auto it = cancels_of[v].find(t);
              it != cancels_of[v].end()) {
            for (int h = 0; h < 2; ++h) {
              if ((it->second & (1 << h)) == 0) {
                cancel_spared += timer[v][h] != kNone ? 1 : 0;
                continue;
              }
              cancelled += timer[v][h] != kNone ? 1 : 0;
              timer[v][h] = kNone;
            }
          }
          for (int h = 0; h < 2; ++h) {
            const auto it = arms_of[v][h].find(t);
            if (it == arms_of[v][h].end()) continue;
            const SlotTime at = it->second;
            if (at <= t + 1) {
              keep = true;
              ++immediate;
            } else if (at < timer[v][h]) {
              lowered += timer[v][h] != kNone ? 1 : 0;
              timer[v][h] = at;
            } else {
              ++dropped_later;
            }
          }
          retained_at[t][v] = keep ? 1 : 0;
        }
        std::vector<std::uint8_t> next = retained_at[t];
        for (const auto& [wt, wv] : driver_wakes)
          if (wt == t) next[wv] = 1;  // arrives between slot t and t+1
        active = std::move(next);
      }
    }

    for (SlotTime t = 0; t < kSlots; ++t) {
      net.step();
      for (NodeId v = 0; v < n; ++v)
        EXPECT_EQ(net.station_active(v),
                  retained_at[t][v] != 0)
            << "round " << round << " node " << v << " after slot " << t;
      for (const auto& [wt, wv] : driver_wakes)
        if (wt == t) net.wake_station(wv);
    }

    std::uint64_t total_polls = 0;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(stations[v].polls, expected[v])
          << "round " << round << " node " << v;
      total_polls += stations[v].polls.size();
    }
    EXPECT_EQ(net.engine_stats().station_polls, total_polls);
    EXPECT_LE(net.engine_stats().peak_active,
              static_cast<std::uint64_t>(n));
    EXPECT_GT(net.engine_stats().peak_active, 0u);
    // The engine must actually have slept somebody.
    EXPECT_LT(total_polls, static_cast<std::uint64_t>(n) * kSlots);
  }
  // Every timer case occurred: each handle's timer admitted a station at
  // its slot, an earlier arm replaced a later one and a later arm lost to
  // an earlier one (earliest wins), an arm for the next slot or earlier
  // acted as a wake, a timer fired on a crashed station, a cancel
  // disarmed an armed timer and one left the other handle's armed timer.
  EXPECT_GT(fired, 0u);
  EXPECT_GT(aux_fired, 0u);
  EXPECT_GT(lowered, 0u);
  EXPECT_GT(dropped_later, 0u);
  EXPECT_GT(immediate, 0u);
  EXPECT_GT(fired_on_crashed, 0u);
  EXPECT_GT(cancelled, 0u);
  EXPECT_GT(cancel_spared, 0u);
}

TEST(EngineInvariants, TransmittingBuysNoPoll) {
  // Three stations on a path, all crashed in slots [4, 8) (every node
  // crashes at the one onset epoch and recovers at the next). All three
  // transmit. Station 0 arms nothing, so it is polled in slot 0 only.
  // Station 1 arms wake_at(3), so it is polled at 0 and at exactly 3.
  // Station 2 wakes itself through slot 3, so it is a member when the
  // crash strikes; the crash freezes that membership, and it is polled
  // again on recovery at slot 8.
  const Graph g = gen::path(3);
  std::deque<Scripted> st;
  st.emplace_back(0, std::set<SlotTime>{0}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{});
  st.emplace_back(1, std::set<SlotTime>{0}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{{0, 3}});
  st.emplace_back(2, std::set<SlotTime>{3}, std::set<SlotTime>{0, 1, 2, 3},
                  std::map<SlotTime, SlotTime>{});
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.recover_rate = 1.0;
  plan.epoch_slots = 4;
  plan.window_start = 4;
  plan.window_end = 5;
  FaultSchedule faults(g, plan, 0xF2E);
  RadioNetwork net(g);
  net.set_faults(&faults);
  net.attach({&st[0], &st[1], &st[2]});

  net.step();  // slot 0: everyone polled, stations 0 and 1 transmit
  EXPECT_FALSE(net.station_active(0));
  EXPECT_FALSE(net.station_active(1));
  EXPECT_TRUE(net.station_active(2));
  for (SlotTime t = 1; t < 12; ++t) {
    net.step();
    EXPECT_EQ(net.station_active(2), t < 8) << "after slot " << t;
  }
  EXPECT_EQ(st[0].polls, (std::vector<SlotTime>{0}));
  EXPECT_EQ(st[1].polls, (std::vector<SlotTime>{0, 3}));
  EXPECT_EQ(st[2].polls, (std::vector<SlotTime>{0, 1, 2, 3, 8}));
  EXPECT_EQ(net.metrics().transmissions, 3u);
  EXPECT_EQ(net.metrics().fault_crashed_slots, 3u * 4);
}

/// A sub-station that records its polls and, at the end of the slots
/// keyed in its script, arms its timer and then optionally cancels it.
class TimerSub final : public SubStation {
 public:
  struct Step {
    SlotTime arm;
    bool cancel = false;
  };
  explicit TimerSub(std::map<SlotTime, Step> script)
      : script_(std::move(script)) {}
  void on_attach(Waker& w) override { waker_ = &w; }
  std::optional<Message> poll(SlotTime t) override {
    polls.push_back(t);
    return std::nullopt;
  }
  void deliver(SlotTime, const Message&) override {}
  void tick(SlotTime t) override {
    const auto it = script_.find(t);
    if (it == script_.end()) return;
    waker_->wake_at(it->second.arm);
    if (it->second.cancel) waker_->cancel();
  }

  std::vector<SlotTime> polls;

 private:
  std::map<SlotTime, Step> script_;
  Waker* waker_ = nullptr;
};

TEST(EngineInvariants, SubTimersAreIndependent) {
  // Two subs of one ChannelMuxStation, each on a handle with its own
  // timer. Neither re-arms the other's duty, so with one shared timer
  // (earliest wins) the later of two arms would be lost. Script:
  //   0: A arms 5, B arms 8   -> B's later arm leaves A's 5 intact;
  //   8: A arms 12, B arms 10 -> A's later arm survives B's earlier one;
  //  12: A arms 15, B arms 18 and cancels -> A's 15 survives B's cancel;
  //  15: A arms 20 and cancels, B arms 17 -> B's 17 survives A's cancel.
  const Graph g = gen::path(1);
  TimerSub a({{0, {5}}, {8, {12}}, {12, {15}}, {15, {20, true}}});
  TimerSub b({{0, {8}}, {8, {10}}, {12, {18, true}}, {15, {17}}});
  ChannelMuxStation mux({&a, &b});
  RadioNetwork::Config cfg;
  cfg.num_channels = 2;
  RadioNetwork net(g, cfg);
  net.attach({&mux});
  net.run(30);
  const std::vector<SlotTime> want{0, 5, 8, 10, 12, 15, 17};
  EXPECT_EQ(a.polls, want);
  EXPECT_EQ(b.polls, want);  // the subs share one membership bit
}

/// Records the slot hook's pulses: a hook must see every slot.
class PulseLog final : public SlotHook {
 public:
  void on_slot_done(SlotTime t) override { pulses.push_back(t); }
  std::vector<SlotTime> pulses;
};

auto metrics_tuple(const NetMetrics& m) {
  return std::make_tuple(m.slots, m.transmissions, m.deliveries,
                         m.collision_events, m.capture_deliveries,
                         m.fault_jams, m.fault_drops, m.fault_link_blocked,
                         m.fault_crashed_slots);
}

auto event_tuple(const EventRecorder::Event& e) {
  return std::make_tuple(e.kind, e.slot, e.node, e.channel, e.has_msg,
                         e.msg_kind, e.origin, e.seq, e.tx_neighbors);
}

TEST(EngineInvariants, RunEqualsThatManySteps) {
  // run(k) skips idle slots; it must still equal k calls of step() in
  // NetMetrics, EngineStats, the trace and the end state. Twin networks
  // run the same idle-heavy scripts, one by step() alone and one by run()
  // over random spans; between spans the driver wakes stations and arms
  // their timers (past, current, near and whole wheel turns ahead) on
  // both. Each station's arms form a chain from slot 0 whose gaps range
  // from one slot to several turns of the 1024-bucket timer wheel, so
  // skipped spans pass buckets holding timers due on later turns. Cells:
  // fault-free, a crash plan (the skip is off), and a slot hook (the skip
  // is off; the hook is pulsed in every slot).
  struct Cell {
    const char* name;
    bool crash;
    bool hook;
  };
  const Cell cells[] = {{"fault-free", false, false},
                        {"crash plan", true, false},
                        {"slot hook", false, true}};
  const SlotTime kSlots = 12'000;
  Rng rng(0x5E1D);
  std::uint64_t driver_ops = 0;
  for (const Cell& cell : cells) {
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(std::string(cell.name) + " round " +
                   std::to_string(round));
      const Graph g = round == 1 ? gen::star(16) : gen::path(20);
      const NodeId n = g.num_nodes();
      std::deque<Scripted> stepped, skipped;
      std::vector<Station*> p_step, p_skip;
      for (NodeId v = 0; v < n; ++v) {
        std::set<SlotTime> tx, wake;
        std::map<SlotTime, SlotTime> arms;
        for (SlotTime cur = 0; cur < kSlots;) {
          const std::uint64_t r = rng.next_below(10);
          const SlotTime gap = r < 4    ? 1 + rng.next_below(30)
                               : r < 6  ? 1024
                               : r == 6 ? 2048 + rng.next_below(3)
                               : r < 9  ? 200 + rng.next_below(900)
                                        : 3000 + rng.next_below(2000);
          arms[cur] = cur + gap;
          if (rng.bernoulli(0.3)) tx.insert(cur);
          if (rng.bernoulli(0.05)) wake.insert(cur);
          cur += gap;
        }
        stepped.emplace_back(v, tx, wake, arms);
        skipped.emplace_back(v, tx, wake, arms);
        p_step.push_back(&stepped.back());
        p_skip.push_back(&skipped.back());
      }

      FaultPlan plan;
      if (cell.crash) {
        plan.crash_rate = 0.05;
        plan.recover_rate = 0.3;
        plan.epoch_slots = 16;
      }
      FaultSchedule f_step(g, plan, 0xC4A5 + round);
      FaultSchedule f_skip(g, plan, 0xC4A5 + round);
      EventRecorder t_step, t_skip;
      PulseLog h_step, h_skip;
      RadioNetwork a(g), b(g);
      a.observe({nullptr, &t_step, nullptr, cell.hook ? &h_step : nullptr});
      b.observe({nullptr, &t_skip, nullptr, cell.hook ? &h_skip : nullptr});
      a.set_faults(&f_step);
      b.set_faults(&f_skip);
      a.attach(p_step);
      b.attach(p_skip);

      while (b.now() < kSlots) {
        const SlotTime span = std::min<SlotTime>(
            kSlots - b.now(), rng.bernoulli(0.1) ? 0 : 1 + rng.next_below(1500));
        b.run(span);
        for (SlotTime i = 0; i < span; ++i) a.step();
        ASSERT_EQ(a.now(), b.now());
        for (NodeId v = 0; v < n; ++v)
          ASSERT_EQ(a.station_active(v), b.station_active(v)) << "node " << v;
        // Driver work between spans, mirrored on both networks.
        for (int k = 0; k < 2; ++k) {
          const NodeId v = static_cast<NodeId>(rng.next_below(n));
          const SlotTime now = b.now();
          const std::uint64_t op = rng.next_below(4);
          if (op == 0) {
            a.wake_station(v);
            b.wake_station(v);
          } else {
            const SlotTime ahead[] = {0, 1, 5, 1024, 1500};
            const SlotTime at =
                op == 1 ? now - std::min<SlotTime>(now, 3)
                        : now + ahead[rng.next_below(5)];
            stepped[v].waker().wake_at(at);
            skipped[v].waker().wake_at(at);
          }
          ++driver_ops;
        }
      }

      EXPECT_EQ(metrics_tuple(a.metrics()), metrics_tuple(b.metrics()));
      EXPECT_EQ(a.metrics().slots, kSlots);
      EXPECT_EQ(a.engine_stats().station_polls, b.engine_stats().station_polls);
      EXPECT_EQ(a.engine_stats().wake_events, b.engine_stats().wake_events);
      EXPECT_EQ(a.engine_stats().peak_active, b.engine_stats().peak_active);
      ASSERT_EQ(t_step.events().size(), t_skip.events().size());
      for (std::size_t i = 0; i < t_step.events().size(); ++i)
        ASSERT_EQ(event_tuple(t_step.events()[i]),
                  event_tuple(t_skip.events()[i]))
            << "event " << i;
      EXPECT_GT(t_skip.events().size(), 0u);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(stepped[v].polls, skipped[v].polls) << "node " << v;
        EXPECT_EQ(stepped[v].received, skipped[v].received) << "node " << v;
      }
      if (cell.hook) {
        ASSERT_EQ(h_skip.pulses.size(), kSlots);
        for (SlotTime t = 0; t < kSlots; ++t)
          ASSERT_EQ(h_skip.pulses[t], t + 1);
        EXPECT_EQ(h_step.pulses, h_skip.pulses);
      }
      if (cell.crash) {
        EXPECT_GT(b.metrics().fault_crashed_slots, 0u);
      }
      // Idle-heavy: most station-slots polled nobody.
      EXPECT_LT(b.engine_stats().station_polls, n * kSlots / 10);
    }
  }
  EXPECT_GT(driver_ops, 0u);
}

TEST(EngineInvariants, RunPassesIdleSpansWithoutSteppingThem) {
  // A timer in the same wheel bucket as a later-turn timer fires at its
  // own slot, and neither fires early; with no timer armed, an idle span
  // of 10^12 slots (hours if stepped) passes at once.
  const Graph g = gen::path(3);
  std::deque<Scripted> st;
  st.emplace_back(0, std::set<SlotTime>{}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{{0, 3000}});
  st.emplace_back(1, std::set<SlotTime>{}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{{0, 1976}});  // 1976 = 952 + 1024
  st.emplace_back(2, std::set<SlotTime>{}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{});
  RadioNetwork net(g);
  net.attach({&st[0], &st[1], &st[2]});
  net.run(5000);
  EXPECT_EQ(st[0].polls, (std::vector<SlotTime>{0, 3000}));
  EXPECT_EQ(st[1].polls, (std::vector<SlotTime>{0, 1976}));
  EXPECT_EQ(st[2].polls, (std::vector<SlotTime>{0}));
  EXPECT_EQ(net.engine_stats().station_polls, 5u);

  const SlotTime kHuge = 1'000'000'000'000;
  net.run(kHuge);
  EXPECT_EQ(net.now(), 5000 + kHuge);
  EXPECT_EQ(net.metrics().slots, 5000 + kHuge);
  // The horizon moved with the skip: an arm for a slot the skip passed
  // over is a wake, so the station is polled in the next slot.
  st[2].waker().wake_at(10);
  net.run(1);
  EXPECT_EQ(st[2].polls, (std::vector<SlotTime>{0, 5000 + kHuge}));
}

/// A run_until case on the script of drive_until: stop at `target`
/// deliveries, at slot `end`, or after `limit` slots without one.
struct UntilCell {
  const char* name;
  std::uint64_t target;
  SlotTime end;
  std::uint64_t limit;
  bool hook;
  bool crash;
  RunStatus status;  ///< expected outcome (fault-free cells)
  SlotTime stop;     ///< expected now() at the end (fault-free cells)
};

struct UntilRun {
  SlotTime now;
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t>
      metrics;
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> stats;
  RunStatus status;
  std::vector<SlotTime> pulses;
};

/// Runs `c` on a three-station path whose sender transmits at slots 0, 100
/// and 2000 and sleeps in between (idle spans 2..99, 102..1999 and from
/// 2002 on), counting deliveries as progress: by run_until, or by the
/// step() loop that run_until replaces.
UntilRun drive_until(const UntilCell& c, bool by_run_until) {
  const Graph g = gen::path(3);
  std::deque<Scripted> st;
  st.emplace_back(0, std::set<SlotTime>{0, 100, 2000}, std::set<SlotTime>{},
                  std::map<SlotTime, SlotTime>{{0, 100}, {100, 2000}});
  for (NodeId v = 1; v < 3; ++v)
    st.emplace_back(v, std::set<SlotTime>{}, std::set<SlotTime>{},
                    std::map<SlotTime, SlotTime>{});
  FaultPlan plan;
  if (c.crash) {
    plan.crash_rate = 0.05;
    plan.recover_rate = 0.3;
    plan.epoch_slots = 16;
  }
  FaultSchedule faults(g, plan, 0x0171);
  PulseLog hook;
  RadioNetwork net(g);
  net.observe({nullptr, nullptr, nullptr, c.hook ? &hook : nullptr});
  net.set_faults(&faults);
  net.attach({&st[0], &st[1], &st[2]});
  const auto delivered = [&net] { return net.metrics().deliveries; };
  StallWatchdog watchdog(c.limit, 0);
  UntilRun r;
  if (by_run_until) {
    r.status = net.run_until(c.target, delivered, c.end, watchdog);
  } else {
    while (delivered() < c.target && net.now() < c.end) {
      net.step();
      if (watchdog.stalled(net.now(), delivered())) break;
    }
    r.status = watchdog.status(delivered() >= c.target);
  }
  r.now = net.now();
  r.metrics = metrics_tuple(net.metrics());
  const EngineStats& e = net.engine_stats();
  r.stats = {e.station_polls, e.wake_events, e.peak_active};
  r.pulses = hook.pulses;
  return r;
}

TEST(EngineInvariants, RunUntilEqualsAStepLoop) {
  // run_until skips idle spans; it must stop on the same slot, with the
  // same status, NetMetrics and EngineStats, as a loop of step() that
  // tests the target, the end and the watchdog after every slot. The
  // deadline cell pins the cap on the skip: progress last grows at slot
  // 100 (now() = 101), so a 500-slot watchdog fires at 601, inside the idle
  // span 102..1999, and an uncapped skip would overshoot it.
  const UntilCell cells[] = {
      {"target mid-span", 2, 5000, 0, false, false, RunStatus::kOk, 101},
      {"end reached", 9, 1500, 0, false, false, RunStatus::kFailed, 1500},
      {"deadline in an idle span", 9, 5000, 500, false, false,
       RunStatus::kDegraded, 601},
      {"slot hook", 9, 5000, 500, true, false, RunStatus::kDegraded, 601},
      {"fault plan", 9, 5000, 500, false, true, RunStatus::kOk, 0},
  };
  for (const UntilCell& c : cells) {
    SCOPED_TRACE(c.name);
    const UntilRun stepped = drive_until(c, false);
    const UntilRun skipped = drive_until(c, true);
    EXPECT_EQ(stepped.now, skipped.now);
    EXPECT_EQ(stepped.status, skipped.status);
    EXPECT_EQ(stepped.metrics, skipped.metrics);
    EXPECT_EQ(stepped.stats, skipped.stats);
    EXPECT_EQ(stepped.pulses, skipped.pulses);
    if (c.hook) {
      EXPECT_EQ(skipped.pulses.size(), skipped.now);
    }
    if (!c.crash) {
      EXPECT_EQ(skipped.now, c.stop);
      EXPECT_EQ(skipped.status, c.status);
    }
  }
}

TEST(EngineInvariants, EpochStampedCellsNeverLeakAcrossSlots) {
  // A single transmitter fires exactly once; the rx cells are never
  // cleared (a drained touched-cell bitset says which are live), so a
  // stale-state bug would re-deliver (or re-collide) in later slots. Run
  // long after the burst and demand total silence.
  class OneShot : public Station {
   public:
    explicit OneShot(NodeId self) : self_(self) {}
    void on_attach(Waker& w) override { waker_ = w; }
    void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
      waker_.wake();
      if (t == 3 && self_ == 0) {  // only the hub fires
        Message m;
        m.origin = self_;
        m.seq = 77;
        tx[0] = m;
      }
    }
    void on_receive(SlotTime t, ChannelId, const Message& m) override {
      deliveries.emplace_back(t, m.seq);
    }
    std::vector<std::pair<SlotTime, std::uint32_t>> deliveries;

   private:
    NodeId self_;
    Waker waker_;
  };

  const Graph g = gen::star(12);
  std::deque<OneShot> stations;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    stations.emplace_back(v);
    ptrs.push_back(&stations.back());
  }
  RadioNetwork net(g);
  net.attach(ptrs);
  net.run(500);

  // The hub (node 0) transmitted once at slot 3; every leaf hears exactly
  // that, leaves' own slot-3 transmissions collide at the hub only.
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    ASSERT_EQ(stations[v].deliveries.size(), 1u) << "leaf " << v;
    EXPECT_EQ(stations[v].deliveries[0],
              (std::pair<SlotTime, std::uint32_t>{3, 77}));
  }
  EXPECT_TRUE(stations[0].deliveries.empty());
  EXPECT_EQ(net.metrics().slots, 500u);
}

}  // namespace
}  // namespace radiomc
