// Engine-level fault-injection semantics: crashed stations vanish from the
// trace entirely, down links carry nothing, jam/drop counters reconcile
// exactly with the engine's delivery accounting, and a FaultSchedule is a
// pure function of (seed, plan, graph) — byte-identical under any query
// batching and any trial-runner --jobs.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "faults/fault_schedule.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "radio/trace.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

/// Transmits its payload on channel 0 every slot; records receptions.
class Chatterbox final : public Station {
 public:
  std::uint64_t payload = 0;
  std::vector<std::pair<SlotTime, std::uint64_t>> received;

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    Message m;
    m.payload = payload;
    tx[0] = m;
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    received.emplace_back(t, m.payload);
  }

 private:
  Waker waker_;
};

/// Station 0 transmits every slot; everyone else only listens.
class Listener final : public Station {
 public:
  std::vector<std::pair<SlotTime, std::uint64_t>> received;
  void on_slot(SlotTime, std::span<std::optional<Message>>) override {}
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    received.emplace_back(t, m.payload);
  }
};

struct FaultNet {
  std::deque<Chatterbox> talkers;
  std::deque<Listener> listeners;
  FaultSchedule faults;
  std::unique_ptr<RadioNetwork> net;

  /// `talk[v]` decides whether node v is a Chatterbox or a Listener.
  FaultNet(const Graph& g, const FaultPlan& plan, std::uint64_t seed,
           const std::vector<bool>& talk) {
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (talk[v]) {
        talkers.emplace_back();
        talkers.back().payload = 1000 + v;
        ptrs.push_back(&talkers.back());
      } else {
        listeners.emplace_back();
        ptrs.push_back(&listeners.back());
      }
    }
    net = std::make_unique<RadioNetwork>(g);
    faults = FaultSchedule(g, plan, seed);
    net->set_faults(&faults);
    net->attach(std::move(ptrs));
  }
};

TEST(FaultSemantics, CrashedStationNeverAppearsInTrace) {
  // Everyone crashes in epoch 0 (rate 1, window from slot 0): from the
  // first slot on, no station may transmit, receive, or collide.
  const Graph g = gen::complete(6);
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.epoch_slots = 1 << 20;  // one epoch covers the whole run
  FaultNet fn(g, plan, 42, std::vector<bool>(6, true));
  EventRecorder rec;
  fn.net->set_trace(&rec);
  fn.net->run(50);

  EXPECT_TRUE(rec.events().empty());
  for (auto& s : fn.talkers) EXPECT_TRUE(s.received.empty());
  EXPECT_EQ(fn.net->metrics().transmissions, 0u);
  EXPECT_EQ(fn.net->metrics().deliveries, 0u);
  EXPECT_EQ(fn.net->metrics().fault_crashed_slots, 6u * 50u);
  EXPECT_EQ(fn.faults.stats().crashes, 6u);
}

TEST(FaultSemantics, RecoveredStationResumesParticipation) {
  // Both stations crash in epoch 0 and recover at the epoch-1 boundary
  // (recover_rate 1, onset window closed): from slot 10 on, the talker
  // transmits again and every slot delivers.
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.recover_rate = 1.0;
  plan.epoch_slots = 10;
  plan.window_end = 10;
  FaultNet fn(g, plan, 7, {true, false});
  fn.net->run(40);

  const auto& rx = fn.listeners.front().received;
  ASSERT_EQ(rx.size(), 30u);
  for (const auto& [slot, payload] : rx) {
    EXPECT_GE(slot, 10u);
    EXPECT_EQ(payload, 1000u);
  }
  EXPECT_EQ(fn.net->metrics().transmissions, 30u);
  EXPECT_EQ(fn.net->metrics().fault_crashed_slots, 2u * 10u);
  EXPECT_EQ(fn.faults.stats().recoveries, 2u);
}

TEST(FaultSemantics, DownLinkDeliversNothing) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.link_down_rate = 1.0;
  plan.epoch_slots = 1 << 20;
  FaultNet fn(g, plan, 9, {true, false});
  fn.net->run(40);

  EXPECT_TRUE(fn.listeners.front().received.empty());
  EXPECT_EQ(fn.net->metrics().deliveries, 0u);
  // The transmitter is alive and keeps transmitting into the void; every
  // slot the sole incident link blocks its one propagation.
  EXPECT_EQ(fn.net->metrics().transmissions, 40u);
  EXPECT_EQ(fn.net->metrics().fault_link_blocked, 40u);
  EXPECT_EQ(fn.faults.stats().link_downs, 1u);
}

TEST(FaultSemantics, JamCountersReconcileWithDeliveries) {
  // 0 -> 1 clean reception every slot; with jamming, every slot is either
  // a delivery or a jam — the two counters must partition the run exactly.
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.jam_prob = 0.35;
  FaultNet fn(g, plan, 11, {true, false});
  EventRecorder rec;
  fn.net->set_trace(&rec);
  const std::uint64_t kSlots = 400;
  fn.net->run(kSlots);

  const NetMetrics& m = fn.net->metrics();
  EXPECT_EQ(m.deliveries + m.fault_jams, kSlots);
  EXPECT_GT(m.fault_jams, 0u);
  EXPECT_GT(m.deliveries, 0u);
  // A jam surfaces in the trace as a collision with tx_neighbors == 1 —
  // silence indistinguishable from a collision for the receiver, but
  // distinguishable for the trace; counts must agree with the metrics.
  std::uint64_t jam_events = 0;
  for (const auto& e : rec.events())
    if (e.kind == EventRecorder::Kind::kCollision) {
      EXPECT_EQ(e.tx_neighbors, 1u);
      ++jam_events;
    }
  EXPECT_EQ(jam_events, m.fault_jams);
  EXPECT_EQ(m.collision_events, 0u);  // jams are not genuine collisions
  EXPECT_EQ(fn.listeners.front().received.size(), m.deliveries);
}

TEST(FaultSemantics, DropCountersReconcileWithDeliveries) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.drop_prob = 0.25;
  FaultNet fn(g, plan, 13, {true, false});
  const std::uint64_t kSlots = 400;
  fn.net->run(kSlots);

  const NetMetrics& m = fn.net->metrics();
  EXPECT_EQ(m.deliveries + m.fault_drops, kSlots);
  EXPECT_GT(m.fault_drops, 0u);
  EXPECT_GT(m.deliveries, 0u);
}

TEST(FaultSemantics, WindowGatesOnsetButNotHealing) {
  // Crashes may strike only in epoch 0; recovery (rate 1) keeps working
  // after the window closes, so by epoch 1 everyone is back.
  const Graph g = gen::complete(5);
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.recover_rate = 1.0;
  plan.epoch_slots = 16;
  plan.window_end = 16;  // only epoch 0 is inside the window
  FaultSchedule sched(g, plan, 3);

  sched.begin_slot(0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_FALSE(sched.node_alive(v));
  sched.begin_slot(16);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(sched.node_alive(v));
  sched.begin_slot(500);  // no new onset past the window
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(sched.node_alive(v));
  EXPECT_EQ(sched.stats().crashes, 5u);
  EXPECT_EQ(sched.stats().recoveries, 5u);
}

/// Serializes every decision the schedule makes over a probe grid into one
/// comparable string. `jump` drives begin_slot straight to the end instead
/// of slot by slot — batching must not change anything.
std::string decision_string(const Graph& g, const FaultPlan& plan,
                            std::uint64_t seed, bool jump) {
  FaultSchedule s(g, plan, seed);
  std::string out;
  const std::uint64_t kHorizon = 600;
  if (jump) {
    s.begin_slot(kHorizon - 1);
  } else {
    for (std::uint64_t t = 0; t < kHorizon; ++t) s.begin_slot(t);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out += s.node_alive(v) ? 'A' : 'a';
    for (std::size_t k = 0; k < g.neighbors(v).size(); ++k)
      out += s.link_up(v, k) ? 'L' : 'l';
  }
  for (std::uint64_t t = 0; t < kHorizon; t += 7)
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      for (std::uint32_t ch = 0; ch < 2; ++ch) {
        out += s.jammed(t, v, ch) ? 'J' : '.';
        out += s.dropped(t, v, ch) ? 'D' : '.';
      }
  const auto& st = s.stats();
  out += " " + std::to_string(st.crashes) + "/" +
         std::to_string(st.recoveries) + "/" + std::to_string(st.link_downs) +
         "/" + std::to_string(st.link_ups);
  return out;
}

FaultPlan everything_plan() {
  FaultPlan plan;
  plan.crash_rate = 0.3;
  plan.recover_rate = 0.4;
  plan.link_down_rate = 0.2;
  plan.link_up_rate = 0.5;
  plan.jam_prob = 0.15;
  plan.drop_prob = 0.1;
  plan.epoch_slots = 32;
  return plan;
}

TEST(FaultSchedule, PureFunctionOfSeedPlanGraph) {
  const Graph g = gen::grid(4, 4);
  const FaultPlan plan = everything_plan();
  const std::string a = decision_string(g, plan, 77, /*jump=*/false);
  const std::string b = decision_string(g, plan, 77, /*jump=*/true);
  EXPECT_EQ(a, b);
  // And a sanity check that the seed actually matters.
  EXPECT_NE(a, decision_string(g, plan, 78, false));
}

TEST(FaultSchedule, IdenticalAcrossTrialRunnerJobs) {
  // The satellite determinism contract: trial t's schedule derives from
  // root.split(t) exactly like the trial-runner's seeds, so the full
  // decision transcript must not depend on the worker count.
  const Graph g = gen::grid(4, 4);
  const FaultPlan plan = everything_plan();
  Rng root(5);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t t = 0; t < 8; ++t) seeds.push_back(root.split(t).next());

  const auto with_jobs = [&](unsigned jobs) {
    return run_indexed(8, jobs, [&](std::uint64_t t) {
      return decision_string(g, plan, seeds[t], (t % 2) == 1);
    });
  };
  const auto one = with_jobs(1);
  const auto eight = with_jobs(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t t = 0; t < one.size(); ++t) EXPECT_EQ(one[t], eight[t]);
}

TEST(FaultSchedule, AllZeroPlanIsDisabled) {
  const Graph g = gen::path(4);
  FaultSchedule s(g, FaultPlan{}, 1);
  EXPECT_FALSE(s.enabled());
  s.begin_slot(1000);
  EXPECT_TRUE(s.node_alive(0));
  EXPECT_FALSE(s.jammed(5, 0, 0));
  EXPECT_FALSE(s.dropped(5, 0, 0));
}

TEST(FaultSemantics, ZeroRatePlanLeavesCollectionByteIdentical) {
  // Zero-cost-when-disabled, observed end to end: an explicit all-zero
  // plan must not perturb a protocol run in any way — same completion
  // slot, same telemetry document.
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<Message> init;
  for (NodeId v = 1; v < 5; ++v) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    init.push_back(m);
  }

  const auto run = [&](bool with_plan) {
    telemetry::Telemetry tel;
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    cfg.telemetry = &tel;
    if (with_plan) {
      cfg.faults = FaultPlan{};  // all rates zero
      cfg.stall_slots = 0;
    }
    const auto out = run_collection(g, tree, init, cfg, 99);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.status, RunStatus::kOk);
    return std::make_pair(out.slots, tel.to_json());
  };
  const auto base = run(false);
  const auto with_zero = run(true);
  EXPECT_EQ(base.first, with_zero.first);
  EXPECT_EQ(base.second, with_zero.second);
}

}  // namespace
}  // namespace radiomc
