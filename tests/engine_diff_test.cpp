// Differential test harness: the active-set RadioNetwork vs the frozen
// pre-rewrite engine (reference_engine.{h,cpp}), driven over a randomized
// matrix of (topology x seed x channels x capture_prob x fault plan) and
// required to be BYTE-IDENTICAL in:
//
//   * the delivery sequence every station observes (slot, channel, origin,
//     seq, payload, sender),
//   * every NetMetrics field,
//   * the JSONL trace stream (radiomc.trace/v2, compared as raw bytes),
//
// plus invariance of all of the above across `run_trials --jobs 1` vs
// `--jobs 8` when the matrix is evaluated on the thread pool.
//
// The station population mixes three behaviors so both stations that stay
// polled in every slot and stations that sleep are exercised:
//
//   * RandomChatter (wakes on every poll): transmits from a private Rng
//     stream, so its behavior is trivially engine-independent and it keeps
//     the channel busy;
//   * SleepyResponder: silent until it receives a message, then wakes and
//     transmits a short burst; its transmissions depend only on (absolute
//     slot, receptions), honoring the waker promise that skipped idle
//     polls are unobservable;
//   * PeriodicBeacon (self-waking): transmits every k-th slot.
//     One variant re-arms wake() every poll (kept awake by wakes); the
//     timed variant arms wake_at(its next beacon slot) and sleeps between
//     beacons, so timers meet crashes, link churn and capture too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "baselines/round_robin_broadcast.h"
#include "baselines/tdma_collection.h"
#include "baselines/wave_schedule.h"
#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/generators.h"
#include "protocols/bfs_build.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/decay.h"
#include "protocols/dfs_numbering.h"
#include "protocols/ethernet_emulation.h"
#include "protocols/leader_election.h"
#include "protocols/point_to_point.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "reference_engine.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/util.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc {
namespace {

using Delivery = std::tuple<SlotTime, ChannelId, NodeId, std::uint32_t,
                            std::uint64_t, NodeId>;

/// Random transmissions from a private stream; records deliveries. Wakes
/// on every poll, so it stays permanently active.
class RandomChatter : public Station {
 public:
  RandomChatter(NodeId self, ChannelId channels, double tx_prob, Rng rng)
      : self_(self), channels_(channels), tx_prob_(tx_prob), rng_(rng) {}

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (!rng_.bernoulli(tx_prob_)) return;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = self_;
    m.seq = seq_++;
    m.payload = rng_.next();
    tx[rng_.next_below(channels_)] = m;
    (void)t;
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  ChannelId channels_;
  double tx_prob_;
  Rng rng_;
  std::uint32_t seq_ = 0;
  Waker waker_;
};

/// Sleeping station: wakes on reception and transmits for `burst` slots
/// (computed from the reception slot, never from poll counts), waking for
/// each next slot of the burst.
class SleepyResponder : public Station {
 public:
  SleepyResponder(NodeId self, std::uint32_t burst)
      : self_(self), burst_(burst) {}

  void on_attach(Waker& w) override { waker_ = &w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t >= burst_from_ && t < burst_from_ + burst_) {
      Message m;
      m.kind = MsgKind::kAck;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t - burst_from_);
      m.payload = echo_;
      tx[0] = m;
      if (waker_ != nullptr && t + 1 < burst_from_ + burst_) waker_->wake();
    }
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
    burst_from_ = t + 1;
    echo_ = m.payload ^ (static_cast<std::uint64_t>(self_) << 32);
    if (waker_ != nullptr) waker_->wake();
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  std::uint32_t burst_;
  SlotTime burst_from_ = ~SlotTime{0};
  std::uint64_t echo_ = 0;
  Waker* waker_ = nullptr;  // null under the reference engine
};

/// Station transmitting every `period`-th slot, re-arming its own
/// wake. Under the reference engine (no wakers) it is polled every slot and
/// behaves identically because the transmit test is on absolute slot time.
class PeriodicBeacon : public Station {
 public:
  PeriodicBeacon(NodeId self, SlotTime period, bool timed)
      : self_(self), period_(period), timed_(timed) {}

  void on_attach(Waker& w) override { waker_ = &w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    const SlotTime phase = self_ % period_;
    if (t % period_ == phase) {
      Message m;
      m.kind = MsgKind::kLeader;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t / period_);
      tx[0] = m;
    }
    if (waker_ == nullptr) return;
    if (timed_) {
      // Sleep until the next beacon slot.
      const SlotTime base = t - t % period_;
      waker_->wake_at(t % period_ < phase ? base + phase
                                          : base + period_ + phase);
    } else {
      // A wake() only spans one slot, so this variant re-arms every poll
      // and stays effectively always scheduled — deliberately: it
      // exercises the "kept awake by wake(), not by transmitting"
      // retention path, while SleepyResponder covers genuine descheduling.
      waker_->wake();
    }
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
    if (waker_ != nullptr && !timed_) waker_->wake();
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  SlotTime period_;
  bool timed_;
  Waker* waker_ = nullptr;
};

struct Cell {
  std::string name;
  Graph graph;
  ChannelId channels = 1;
  bool rx_while_tx_other = true;
  double capture_prob = 0.0;
  FaultPlan plan;  // default: disabled
  std::uint64_t seed = 0;
  SlotTime slots = 400;
};

bool same_metrics(const NetMetrics& a, const NetMetrics& b) {
  return a.slots == b.slots && a.transmissions == b.transmissions &&
         a.deliveries == b.deliveries &&
         a.collision_events == b.collision_events &&
         a.capture_deliveries == b.capture_deliveries &&
         a.fault_jams == b.fault_jams && a.fault_drops == b.fault_drops &&
         a.fault_link_blocked == b.fault_link_blocked &&
         a.fault_crashed_slots == b.fault_crashed_slots;
}

/// Everything one engine produced, in comparable (and printable) form.
struct RunDigest {
  std::vector<std::vector<Delivery>> per_station;
  NetMetrics metrics;
  std::string trace;

  bool operator==(const RunDigest& o) const {
    return per_station == o.per_station && trace == o.trace &&
           same_metrics(metrics, o.metrics);
  }
};

/// Builds the mixed station population for `cell` (same construction for
/// both engines; station randomness derives from cell.seed only).
struct Population {
  std::deque<RandomChatter> chatters;
  std::deque<SleepyResponder> sleepers;
  std::deque<PeriodicBeacon> beacons;
  std::vector<Station*> stations;
  std::vector<std::vector<Delivery>*> logs;

  explicit Population(const Cell& cell) {
    Rng master(cell.seed);
    const NodeId n = cell.graph.num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      switch (v % 3) {
        case 0:
          chatters.emplace_back(v, cell.channels, 0.15, master.split(v));
          stations.push_back(&chatters.back());
          logs.push_back(&chatters.back().received);
          break;
        case 1:
          sleepers.emplace_back(v, 3 + v % 4);
          stations.push_back(&sleepers.back());
          logs.push_back(&sleepers.back().received);
          break;
        default:
          beacons.emplace_back(v, 5 + v % 7, /*timed=*/v % 2 == 0);
          stations.push_back(&beacons.back());
          logs.push_back(&beacons.back().received);
          break;
      }
    }
  }
};

RadioNetwork::Config net_config(const Cell& cell) {
  RadioNetwork::Config cfg;
  cfg.num_channels = cell.channels;
  cfg.rx_while_tx_other = cell.rx_while_tx_other;
  cfg.capture_prob = cell.capture_prob;
  cfg.capture_stream = Rng(cell.seed ^ 0xCA97CA97ULL);
  return cfg;
}

template <typename Engine>
RunDigest run_engine(const Cell& cell) {
  Population pop(cell);
  std::ostringstream trace_out;
  telemetry::JsonlTraceSink trace(trace_out);
  Engine net(cell.graph, net_config(cell));
  FaultSchedule faults(cell.graph, cell.plan, cell.seed ^ 0xFA17ULL);
  net.set_faults(&faults);
  net.set_trace(&trace);
  net.attach(pop.stations);
  net.run(cell.slots);
  trace.finish();

  RunDigest d;
  for (auto* log : pop.logs) d.per_station.push_back(*log);
  d.metrics = net.metrics();
  d.trace = trace_out.str();
  return d;
}

RunDigest run_active(const Cell& cell) {
  return run_engine<RadioNetwork>(cell);
}
RunDigest run_reference(const Cell& cell) {
  return run_engine<radiomc::testing::ReferenceNetwork>(cell);
}

FaultPlan crash_plan() {
  FaultPlan p;
  p.crash_rate = 0.05;
  p.recover_rate = 0.4;
  p.epoch_slots = 16;
  return p;
}

FaultPlan noise_plan() {
  FaultPlan p;
  p.jam_prob = 0.08;
  p.drop_prob = 0.05;
  return p;
}

FaultPlan link_plan() {
  FaultPlan p;
  p.link_down_rate = 0.05;
  p.link_up_rate = 0.5;
  p.epoch_slots = 8;
  return p;
}

FaultPlan everything_plan() {
  FaultPlan p = crash_plan();
  p.jam_prob = 0.05;
  p.drop_prob = 0.03;
  p.link_down_rate = 0.03;
  p.link_up_rate = 0.5;
  return p;
}

std::vector<Cell> build_matrix() {
  std::vector<Cell> cells;
  Rng topo_rng(0xD1FF);
  struct Topo {
    std::string name;
    Graph g;
  };
  std::vector<Topo> topologies;
  topologies.push_back({"path32", gen::path(32)});
  topologies.push_back({"star24", gen::star(24)});
  topologies.push_back({"grid8x8", gen::grid(8, 8)});
  topologies.push_back({"gnp96", gen::gnp_connected(96, 0.08, topo_rng)});
  topologies.push_back(
      {"udg80", gen::unit_disk_connected(80, gen::udg_connect_radius(80),
                                         topo_rng)});
  topologies.push_back({"barbell", gen::barbell(10, 4)});
  topologies.push_back({"gnp_sparse", gen::gnp_sparse_connected(
                                          200, 14.0 / 200.0, topo_rng)});

  const std::vector<std::pair<std::string, FaultPlan>> plans = {
      {"nofault", FaultPlan{}},
      {"crash", crash_plan()},
      {"noise", noise_plan()},
      {"links", link_plan()},
      {"all", everything_plan()},
  };

  for (const auto& topo : topologies) {
    int i = 0;
    for (const auto& [plan_name, plan] : plans) {
      Cell c;
      c.graph = topo.g;
      c.plan = plan;
      // Sweep channels / capture / duplexing with the plan index so the
      // matrix covers the config space without exploding combinatorially.
      c.channels = (i % 2 == 0) ? 1 : 2;
      c.capture_prob = (i % 3 == 1) ? 0.5 : 0.0;
      c.rx_while_tx_other = i % 4 != 3;
      c.seed = 0x5EED0000 + i * 977 + topo.g.num_nodes();
      c.name = topo.name + "/" + plan_name;
      cells.push_back(std::move(c));
      ++i;
    }
  }
  return cells;
}

TEST(EngineDiff, ActiveSetEngineIsByteIdenticalToReference) {
  const std::vector<Cell> cells = build_matrix();
  ASSERT_GE(cells.size(), 30u);
  for (const Cell& cell : cells) {
    const RunDigest a = run_active(cell);
    const RunDigest r = run_reference(cell);
    EXPECT_TRUE(a == r) << "divergence in cell " << cell.name;
    // On mismatch, narrow the report so the failure is actionable.
    if (!(a == r)) {
      EXPECT_EQ(a.metrics.transmissions, r.metrics.transmissions)
          << cell.name;
      EXPECT_EQ(a.metrics.deliveries, r.metrics.deliveries) << cell.name;
      EXPECT_EQ(a.metrics.collision_events, r.metrics.collision_events)
          << cell.name;
      EXPECT_EQ(a.metrics.fault_jams, r.metrics.fault_jams) << cell.name;
      EXPECT_EQ(a.metrics.fault_crashed_slots, r.metrics.fault_crashed_slots)
          << cell.name;
      EXPECT_EQ(a.trace.size(), r.trace.size()) << cell.name;
      ASSERT_EQ(a.per_station.size(), r.per_station.size()) << cell.name;
      for (std::size_t v = 0; v < a.per_station.size(); ++v)
        EXPECT_EQ(a.per_station[v], r.per_station[v])
            << cell.name << " station " << v;
      break;  // one fully-reported divergence is enough output
    }
  }
}

TEST(EngineDiff, SeedSweepOnDenseAndSparseCells) {
  // A deeper per-seed sweep on two contrasting cells: a collision-storm
  // star (every slot superposes) and a sparse path (most stations idle,
  // maximally exercising descheduling).
  Rng topo_rng(0xD1FF + 1);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Cell dense;
    dense.graph = gen::star(16);
    dense.capture_prob = 0.3;
    dense.seed = seed * 7919;
    dense.slots = 300;
    dense.name = "star16/seed" + std::to_string(seed);
    EXPECT_TRUE(run_active(dense) == run_reference(dense)) << dense.name;

    Cell sparse;
    sparse.graph = gen::path(64);
    sparse.channels = 2;
    sparse.plan = everything_plan();
    sparse.seed = seed * 104729;
    sparse.slots = 300;
    sparse.name = "path64/seed" + std::to_string(seed);
    EXPECT_TRUE(run_active(sparse) == run_reference(sparse)) << sparse.name;
  }
}

TEST(EngineDiff, MatrixIsJobCountInvariant) {
  // The same matrix evaluated on the deterministic trial pool: --jobs 8
  // must produce byte-identical digests to --jobs 1, for both engines.
  // (Each trial builds its own graph copy: Cell holds the Graph by value,
  // and populations/engines are trial-local, so nothing is shared.)
  const std::vector<Cell> cells = build_matrix();
  const auto eval = [&cells](unsigned jobs) {
    Rng root(0xB0B);  // run_trials requires a root stream; cells carry seeds
    return run_trials(cells.size(), jobs, root,
                      [&cells](std::size_t i, Rng&) {
                        const RunDigest a = run_active(cells[i]);
                        const RunDigest r = run_reference(cells[i]);
                        // Fold the cross-engine check into the parallel run
                        // so TSan sees the full workload too.
                        return std::make_pair(a == r, a);
                      });
  };
  const auto serial = eval(1);
  const auto parallel = eval(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].first) << "engine divergence in cell " << i;
    EXPECT_TRUE(serial[i].second == parallel[i].second)
        << "job-count divergence in cell " << i;
  }
}

// ---------------------------------------------------------------------------
// Dense slots: thousands of stations join in one slot and thousands of
// receiver cells are touched, the case the engine's ordered bitsets (the
// active set's members, the touched cells) exist for.
// ---------------------------------------------------------------------------

/// One engine callback, in the global order the engine made it: a poll
/// (channel = the one it transmitted on, or kSilent) or a reception.
struct Call {
  SlotTime slot;
  NodeId node;
  bool receive;
  ChannelId channel;
  NodeId origin;
  bool operator==(const Call&) const = default;
};
constexpr ChannelId kSilent = ~ChannelId{0};

/// Sleeps on a timer between bursts: every `period`-th slot the whole
/// population is due at once and each station transmits with probability
/// 0.4 on a random channel, drawn from a private stream in burst slots
/// only. It logs its burst-slot polls and all its receptions to one list
/// shared by the population.
class BurstStation : public Station {
 public:
  BurstStation(NodeId self, ChannelId channels, SlotTime period, Rng rng,
               std::vector<Call>* calls)
      : self_(self), channels_(channels), period_(period), rng_(rng),
        calls_(calls) {}

  void on_attach(Waker& w) override { waker_ = &w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t % period_ == 0) {
      ChannelId ch = kSilent;
      if (rng_.bernoulli(0.4)) {
        ch = static_cast<ChannelId>(rng_.next_below(channels_));
        Message m;
        m.kind = MsgKind::kData;
        m.origin = self_;
        m.seq = static_cast<std::uint32_t>(t);
        m.payload = rng_.next();
        tx[ch] = m;
      }
      calls_->push_back({t, self_, false, ch, kNoNode});
    }
    if (waker_ != nullptr) waker_->wake_at(t - t % period_ + period_);
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    calls_->push_back({t, self_, true, ch, m.origin});
  }

 private:
  NodeId self_;
  ChannelId channels_;
  SlotTime period_;
  Rng rng_;
  std::vector<Call>* calls_;
  Waker* waker_ = nullptr;  // null under the reference engine
};

struct BurstRun {
  std::vector<Call> calls;
  NetMetrics metrics;
  std::string trace;
};

template <typename Engine>
BurstRun run_bursts(const Graph& g, const FaultPlan& plan, SlotTime period,
                    SlotTime slots) {
  constexpr ChannelId kChannels = 2;
  BurstRun out;
  Rng master(0xB0257);
  std::deque<BurstStation> stations;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    stations.emplace_back(v, kChannels, period, master.split(v), &out.calls);
    ptrs.push_back(&stations.back());
  }
  RadioNetwork::Config cfg;
  cfg.num_channels = kChannels;
  cfg.capture_prob = 0.5;  // capture draws in Phase 2 and Phase 3
  cfg.capture_stream = Rng(0xCA97);
  std::ostringstream trace_out;
  telemetry::JsonlTraceSink trace(trace_out);
  Engine net(g, cfg);
  FaultSchedule faults(g, plan, 0xFA17);
  net.set_faults(&faults);
  net.set_trace(&trace);
  net.attach(ptrs);
  net.run(slots);
  trace.finish();
  out.metrics = net.metrics();
  out.trace = trace_out.str();
  return out;
}

TEST(EngineDiff, DenseSlotsMatchTheReferenceCallForCall) {
  Rng topo_rng(0xDE05E);
  const NodeId n = 3000;
  const Graph g =
      gen::unit_disk_fast(n, gen::udg_degree_radius(n, 16.0), topo_rng);
  const SlotTime period = 8;
  FaultPlan crash_jam = crash_plan();
  crash_jam.jam_prob = 0.08;
  for (const auto& [name, plan] :
       std::vector<std::pair<std::string, FaultPlan>>{
           {"nofault", FaultPlan{}}, {"crash+jam", crash_jam}}) {
    const BurstRun a = run_bursts<RadioNetwork>(g, plan, period, 5 * period);
    const BurstRun r = run_bursts<radiomc::testing::ReferenceNetwork>(
        g, plan, period, 5 * period);
    EXPECT_TRUE(a.calls == r.calls) << name;
    EXPECT_TRUE(same_metrics(a.metrics, r.metrics)) << name;
    EXPECT_TRUE(a.trace == r.trace) << name;
    EXPECT_GT(a.metrics.capture_deliveries, 0u) << name;

    // The slot the test is about: every station asleep since slot 1 is
    // due at `period`, and the cells its transmissions touch, counted from
    // the logged polls, number in the thousands.
    std::size_t joined = 0;
    std::set<std::pair<NodeId, ChannelId>> touched;
    for (const Call& c : a.calls) {
      if (c.slot != period || c.receive) continue;
      ++joined;
      if (c.channel == kSilent) continue;
      for (const NodeId v : g.neighbors(c.node)) touched.emplace(v, c.channel);
    }
    EXPECT_GE(joined, 1024u) << name;
    EXPECT_GE(touched.size(), 4096u) << name;
  }
}

// ---------------------------------------------------------------------------
// Protocol-level A/B: every protocol station sleeps, and none can be told
// not to. The reference engine never hands out a Waker, so it polls
// every station every slot: that is the always-polled side of each A/B.
// The only thing sleeping may change is how many polls the engine spends.
// ---------------------------------------------------------------------------

std::vector<Message> one_data_message_each(const Graph& g) {
  std::vector<Message> init;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    m.payload = 7000 + v;
    init.push_back(m);
  }
  return init;
}

/// The paper's Decay procedure as an always-polled station: transmit at
/// every opportunity while the DecayProcess lives, flip the coin after each
/// transmission. It wakes on every poll, so it never sleeps.
class DecayReference final : public Station {
 public:
  DecayReference(std::uint32_t len, bool transmits, Rng rng)
      : decay_(len), rng_(rng) {
    if (transmits) decay_.start();
  }
  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (!decay_.wants_transmit()) return;
    Message m;
    m.kind = MsgKind::kData;
    tx[0] = m;
    transmitted_ = true;
  }
  void on_receive(SlotTime, ChannelId, const Message&) override {
    received_ = true;
  }
  void on_slot_end(SlotTime) override {
    if (transmitted_) decay_.after_transmit(rng_);
    transmitted_ = false;
  }
  bool received() const noexcept { return received_; }

 private:
  DecayProcess decay_;
  Rng rng_;
  bool transmitted_ = false;
  bool received_ = false;
  Waker waker_;
};

TEST(AutosleepAB, DecayTrialMatchesTheAlwaysPolledReference) {
  // decay_single_trial's stations sleep between their own transmissions;
  // Decay on the always-polled reference engine, from the same per-node
  // streams, must reach the same verdict and leave the caller's Rng in the
  // same state.
  const Graph g = gen::star(20);
  constexpr std::uint32_t kLen = 8;
  std::vector<bool> sends(g.num_nodes(), false);
  std::vector<NodeId> transmitters;
  for (NodeId v = 1; v <= 6; ++v) {
    transmitters.push_back(v);
    sends[v] = true;
  }
  std::uint64_t heard = 0;
  constexpr std::uint64_t kSeeds = 24;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng_sleep(seed * 31);
    Rng rng_ref(seed * 31);
    const bool a = decay_single_trial(g, 0, transmitters, kLen, rng_sleep);

    std::vector<std::unique_ptr<DecayReference>> stations;
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.push_back(
          std::make_unique<DecayReference>(kLen, sends[v], rng_ref.split(v)));
      ptrs.push_back(stations.back().get());
    }
    radiomc::testing::ReferenceNetwork net(g);
    net.attach(std::move(ptrs));
    net.run(kLen);

    EXPECT_EQ(a, stations[0]->received()) << "seed " << seed;
    EXPECT_EQ(rng_sleep.next(), rng_ref.next()) << "seed " << seed;
    heard += a ? 1 : 0;
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(heard, 0u);
  EXPECT_LT(heard, kSeeds);
}

// ---------------------------------------------------------------------------
// Pieces: one protocol's stations on every node, run on both engines.
// ---------------------------------------------------------------------------

/// One run of a piece: what the radio saw, and each node's end state.
struct PieceRun {
  std::string trace;
  NetMetrics metrics;
  std::vector<std::uint64_t> state;
  std::uint64_t polls = 0;  ///< active-set engine only
};

/// A node whose two SubStations share it as the p2p, k-broadcast and
/// ethernet drivers compose them: `a` on channel 0, `b` on channel 1, under
/// a ChannelMuxStation.
template <typename A, typename B>
struct Muxed {
  std::unique_ptr<A> a;
  std::unique_ptr<B> b;
};

/// The same two SubStations interleaved on one channel, as
/// BroadcastService's time-division mode composes them: `a` in even
/// slots, `b` in odd ones, under a TimeDivisionStation.
template <typename A, typename B>
struct TimeDivided {
  std::unique_ptr<A> a;
  std::unique_ptr<B> b;
};

/// The Station the engine drives for a piece node.
template <typename S>
std::unique_ptr<Station> station_of(std::unique_ptr<S>& s) {
  return std::make_unique<SingleStation>(*s);
}
template <typename A, typename B>
std::unique_ptr<Station> station_of(Muxed<A, B>& m) {
  return std::make_unique<ChannelMuxStation>(
      std::vector<SubStation*>{m.a.get(), m.b.get()});
}
template <typename A, typename B>
std::unique_ptr<Station> station_of(TimeDivided<A, B>& m) {
  return std::make_unique<TimeDivisionStation>(
      std::vector<SubStation*>{m.a.get(), m.b.get()});
}

/// What a piece's `state` sees of a node: the SubStation, or both halves.
template <typename S>
const S& parts_of(const std::unique_ptr<S>& s) {
  return *s;
}
template <typename A, typename B>
const Muxed<A, B>& parts_of(const Muxed<A, B>& m) {
  return m;
}
template <typename A, typename B>
const TimeDivided<A, B>& parts_of(const TimeDivided<A, B>& m) {
  return m;
}

/// The default between-slots driver: none.
struct NoDriver {
  template <typename Nodes>
  void operator()(SlotTime, Nodes&) const {}
};

/// Runs one node per vertex (built by `make`) for `slots` slots under
/// `plan` on an engine configured by `engine`. `drive(t, nodes)` runs
/// before slot t, between slots, on both engines alike; it must depend on
/// t and the nodes only, since each engine's run calls it afresh. `state`
/// summarizes a node's end state in one word.
template <typename Engine, typename Make, typename State, typename Drive>
PieceRun run_piece(const Graph& g, const FaultPlan& plan, SlotTime slots,
                   Make make, State state,
                   const RadioNetwork::Config& engine, Drive drive) {
  std::vector<decltype(make(NodeId{0}))> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.push_back(make(v));
  std::vector<std::unique_ptr<Station>> stations;
  std::vector<Station*> ptrs;
  for (auto& node : nodes) {
    stations.push_back(station_of(node));
    ptrs.push_back(stations.back().get());
  }
  std::ostringstream trace_out;
  PieceRun r;
  {
    telemetry::JsonlTraceSink trace(trace_out);
    Engine net(g, engine);
    FaultSchedule faults(g, plan, 0xFA17ULL + g.num_nodes());
    net.set_faults(&faults);
    net.set_trace(&trace);
    net.attach(ptrs);
    for (SlotTime t = 0; t < slots; ++t) {
      drive(t, nodes);
      net.step();
    }
    r.metrics = net.metrics();
    if constexpr (std::is_same_v<Engine, RadioNetwork>)
      r.polls = net.engine_stats().station_polls;
  }
  r.trace = trace_out.str();
  for (const auto& node : nodes) r.state.push_back(state(parts_of(node)));
  return r;
}

/// Runs the piece on both engines and checks the active-set one against
/// the always-polled reference; returns the active-set engine's run.
template <typename Make, typename State, typename Drive = NoDriver>
PieceRun expect_same_as_reference(const std::string& what, const Graph& g,
                                  const FaultPlan& plan, SlotTime slots,
                                  Make make, State state,
                                  const RadioNetwork::Config& engine = {},
                                  Drive drive = {}) {
  const PieceRun a =
      run_piece<RadioNetwork>(g, plan, slots, make, state, engine, drive);
  const PieceRun b = run_piece<radiomc::testing::ReferenceNetwork>(
      g, plan, slots, make, state, engine, drive);
  EXPECT_TRUE(a.trace == b.trace) << what << ": trace bytes differ";
  EXPECT_TRUE(same_metrics(a.metrics, b.metrics)) << what;
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_GT(a.metrics.transmissions, 0u) << what << " was vacuous";
  return a;
}

/// expect_same_as_reference for a piece that sleeps: it must spend fewer
/// polls than the always-polled reference.
template <typename Make, typename State, typename Drive = NoDriver>
PieceRun expect_piece_matches(const std::string& what, const Graph& g,
                          const FaultPlan& plan, SlotTime slots, Make make,
                          State state, const RadioNetwork::Config& engine = {},
                          Drive drive = {}) {
  const PieceRun a = expect_same_as_reference(what, g, plan, slots, make,
                                              state, engine, drive);
  EXPECT_LT(a.polls, static_cast<std::uint64_t>(g.num_nodes()) * slots)
      << what << ": the piece did not sleep";
  return a;
}

/// expect_same_as_reference for a piece that wakes itself in every slot:
/// every live node is polled in every slot.
template <typename Make, typename State>
PieceRun expect_always_polled_piece_matches(
    const std::string& what, const Graph& g, const FaultPlan& plan,
    SlotTime slots, Make make, State state,
    const RadioNetwork::Config& engine = {}) {
  const PieceRun a =
      expect_same_as_reference(what, g, plan, slots, make, state, engine);
  EXPECT_EQ(a.polls + a.metrics.fault_crashed_slots,
            static_cast<std::uint64_t>(g.num_nodes()) * slots)
      << what << ": the piece slept";
  return a;
}

/// Every piece runs fault-free and under crash churn.
const std::vector<std::pair<std::string, FaultPlan>>& piece_plans() {
  static const std::vector<std::pair<std::string, FaultPlan>> plans = {
      {"nofault", FaultPlan{}}, {"crash", crash_plan()}};
  return plans;
}

// Setup pieces: leader election, BFS construction, the two DFS token
// traversals, the verification collection and the completion flood sleep
// on their own timed, token and duty wakes.

TEST(AutosleepAB, SetupPiecesMatchTheAlwaysPolledReference) {
  Rng topo(0x5E7);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("grid6x6", gen::grid(6, 6));
  graphs.emplace_back("udg40", gen::unit_disk_connected(
                                   40, gen::udg_connect_radius(40), topo));
  graphs.emplace_back("gnp48", gen::gnp_connected(48, 0.1, topo));
  for (const auto& [gname, g] : graphs) {
    const NodeId n = g.num_nodes();
    const std::uint32_t dl = decay_length(g.max_degree());
    const BfsTree tree = oracle_bfs_tree(g, 0);
    for (const auto& [pname, plan] : piece_plans()) {
      const std::string cell = gname + "/" + pname;

      LeaderConfig lc;
      lc.decay_len = dl;
      expect_piece_matches(
          cell + "/leader", g, plan, 160 * dl,
          [&](NodeId v) {
            return std::make_unique<MaxFloodStation>(v, lc, Rng(0x1E + v));
          },
          [](const MaxFloodStation& s) { return s.best(); });

      BfsBuildConfig bc;
      bc.decay_len = dl;
      bc.announce_phases = 2 * ceil_log2(n) + 2;
      expect_piece_matches(
          cell + "/bfs", g, plan, 16 * dl * bc.announce_phases,
          [&](NodeId v) {
            auto s = std::make_unique<BfsBuildStation>(v, bc, Rng(0xBF + v));
            if (v == 0) s->make_root(0);
            return s;
          },
          [](const BfsBuildStation& s) {
            return (std::uint64_t{s.level()} << 32) | s.parent();
          });

      expect_piece_matches(
          cell + "/dfs_graph", g, plan, 2 * SlotTime{n} + 2,
          [&](NodeId v) {
            auto nb = g.neighbors(v);
            auto s = std::make_unique<GraphDfsStation>(
                v, std::vector<NodeId>(nb.begin(), nb.end()));
            s->set_local(tree.level[v], tree.parent[v], v == 0);
            return s;
          },
          [](const GraphDfsStation& s) {
            return (std::uint64_t{s.visited()} << 33) |
                   (std::uint64_t{s.bfs_levels_consistent()} << 32) |
                   s.bfs_children().size();
          });

      expect_piece_matches(
          cell + "/dfs_tree", g, plan, 2 * SlotTime{n} + 2,
          [&](NodeId v) {
            std::vector<NodeId> children;
            for (NodeId u = 0; u < n; ++u)
              if (tree.parent[u] == v) children.push_back(u);
            auto s = std::make_unique<TreeDfsStation>(v);
            s->set_local(tree.parent[v], children, v == 0);
            return s;
          },
          [](const TreeDfsStation& s) {
            return (std::uint64_t{s.number()} << 32) | s.max_desc();
          });

      // The §3 hop core under the B/F verification collection: one
      // message from every non-root climbs the oracle tree.
      const CollectionConfig cc = CollectionConfig::for_graph(g);
      expect_piece_matches(
          cell + "/collection", g, plan,
          4 * SlotTime{n} * PhaseClock(cc.slots).slots_per_phase(),
          [&](NodeId v) {
            auto s = std::make_unique<CollectionStation>(v, tree, cc,
                                                         Rng(0xC0 + v));
            if (v != 0) s->inject(one_data_message_each(g)[v - 1]);
            return s;
          },
          [](const CollectionStation& s) {
            return (std::uint64_t{s.buffer_size()} << 32) |
                   s.root_sink().size();
          });

      const PieceRun flood = expect_piece_matches(
          cell + "/flood", g, plan, 40 * dl,
          [&](NodeId v) {
            auto s = std::make_unique<FloodStation>(dl, Rng(0xF1 + v));
            if (v == 0) s->seed(Message{});
            return s;
          },
          [](const FloodStation& s) { return s.informed_at(); });

      // Under BGI's relay budget a station that has relayed for its K
      // phases sleeps for good.
      const PieceRun budgeted = expect_piece_matches(
          cell + "/flood_budgeted", g, plan, 40 * dl,
          [&](NodeId v) {
            auto s = std::make_unique<FloodStation>(dl, Rng(0xF1 + v));
            s->reset(Rng(0xF1 + v), 2 * ceil_log2(n) + 2);
            if (v == 0) s->seed(Message{});
            return s;
          },
          [](const FloodStation& s) {
            return (std::uint64_t{s.informed()} << 63) | s.informed_at();
          });
      EXPECT_LT(budgeted.metrics.transmissions, flood.metrics.transmissions)
          << cell;
      EXPECT_LT(budgeted.polls, flood.polls) << cell;
    }
  }
}

TEST(AutosleepAB, FloodOnALongPathMatchesTheAlwaysPolledReference) {
  // The flood's win is the uninformed frontier: on a long path most
  // stations sleep until the wave reaches them.
  const Graph g = gen::path(64);
  const std::uint32_t dl = decay_length(g.max_degree());
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_piece_matches(
        "path64/seed" + std::to_string(seed), g, FaultPlan{}, 400 * dl,
        [&](NodeId v) {
          auto s = std::make_unique<FloodStation>(dl, Rng(seed).split(v));
          if (v == 0) s->seed(Message{});
          return s;
        },
        [](const FloodStation& s) {
          return (std::uint64_t{s.informed()} << 63) | s.informed_at();
        });
}

// ---------------------------------------------------------------------------
// The protocol drivers' compositions: collection as serve runs it, the p2p,
// k-broadcast and ethernet muxes, the time-division composition, and
// distribution alone. Arrivals enter between slots, as the drivers inject
// them.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: a node's logs folded into one word.
class Digest {
 public:
  Digest& operator<<(std::uint64_t x) {
    h_ = (h_ ^ x) * 0x100000001B3ULL;
    return *this;
  }
  /// A state word: `count` in the high half (what a test checks for
  /// progress), the digest folded into the low half.
  std::uint64_t with_count(std::uint64_t count) const {
    return (count << 32) | ((h_ ^ (h_ >> 32)) & 0xFFFFFFFFULL);
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

Digest& operator<<(Digest& d, const std::vector<AckedHop::Delivery>& log) {
  for (const auto& [slot, m] : log)
    d << slot << m.origin << m.seq << m.dest << m.sender << m.payload;
  return d;
}

/// The count half of a state word.
std::uint64_t count_of(std::uint64_t state) { return state >> 32; }

/// Arrival times 0, 1, 3, 6, 10, ... (in phases or superphases): early
/// arrivals reach a busy network, later ones stations that drained and
/// slept long ago.
std::vector<std::uint64_t> triangular(std::uint64_t count) {
  std::vector<std::uint64_t> at;
  for (std::uint64_t i = 0; i < count; ++i) at.push_back(i * (i + 1) / 2);
  return at;
}

/// The index of `x` in the sorted `at`, if it is there.
std::optional<std::size_t> index_in(const std::vector<std::uint64_t>& at,
                                    std::uint64_t x) {
  const auto it = std::lower_bound(at.begin(), at.end(), x);
  if (it == at.end() || *it != x) return std::nullopt;
  return static_cast<std::size_t>(it - at.begin());
}

/// serve's composition: one CollectionStation per node with the dedup
/// guard on, and arrivals injected between slots at deepest-level nodes
/// on phase boundaries. A late arrival lands on a station that has
/// drained and slept, so only AckedHop::push's wake schedules it in time.
void collection_with_mid_run_arrivals(const std::string& pname,
                                      const FaultPlan& plan) {
  Rng topo(0xC011);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("path24", gen::path(24));
  graphs.emplace_back("star16", gen::star(16));  // every leaf is deepest
  graphs.emplace_back("grid5x5", gen::grid(5, 5));
  graphs.emplace_back("udg40", gen::unit_disk_connected(
                                   40, gen::udg_connect_radius(40), topo));
  for (const auto& [gname, g] : graphs) {
    const BfsTree tree = oracle_bfs_tree(g, 0);
    std::vector<NodeId> deepest;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (tree.level[v] == tree.depth) deepest.push_back(v);
    CollectionConfig cc = CollectionConfig::for_graph(g);
    cc.dedup_guard = true;
    const SlotTime spp = PhaseClock(cc.slots).slots_per_phase();
    const std::vector<std::uint64_t> arrive_at = triangular(16);
    const SlotTime slots = (arrive_at.back() + 8 * (tree.depth + 4)) * spp;
    const PieceRun run = expect_piece_matches(
        gname + "/" + pname, g, plan, slots,
        [&](NodeId v) {
          auto s = std::make_unique<CollectionStation>(v, tree, cc,
                                                       Rng(0xC0).split(v));
          s->record_accepts(true);
          return s;
        },
        [](const CollectionStation& s) {
          Digest d;
          d << s.buffer_size() << s.root_sink();
          for (const auto& [phase, level] : s.accept_log()) d << phase << level;
          return d.with_count(s.root_sink().size());
        },
        RadioNetwork::Config{},
        [&](SlotTime t, auto& nodes) {
          if (t % spp != 0) return;
          const auto i = index_in(arrive_at, t / spp);
          if (!i) return;
          Message m;
          m.kind = MsgKind::kData;
          m.origin = deepest[*i % deepest.size()];
          m.seq = static_cast<std::uint32_t>(*i);
          m.payload = 5000 + *i;
          nodes[m.origin]->inject(m);
        });
    if (plan.any()) continue;
    EXPECT_EQ(count_of(run.state[tree.root]), arrive_at.size())
        << gname << ": not every arrival reached the root";
  }
}

TEST(AutosleepAB, CollectionIsByteIdenticalAndPollsLess) {
  collection_with_mid_run_arrivals("nofault", FaultPlan{});
}

TEST(AutosleepAB, CollectionIdenticalUnderFaultsToo) {
  collection_with_mid_run_arrivals("crash", crash_plan());
}

TEST(AutosleepAB, PointToPointIsByteIdenticalAndPollsLess) {
  // run_point_to_point's and run_ranking's composition: P2pUpStation on
  // channel 0 and P2pDownStation on channel 1 under one mux,
  // requests addressed by run_preparation's DFS labels and sent between
  // slots on phase boundaries.
  Rng topo(0x929);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("gnp24", gen::gnp_connected(24, 0.2, topo));
  graphs.emplace_back("grid5x5", gen::grid(5, 5));
  graphs.emplace_back("path16", gen::path(16));
  for (const auto& [gname, g] : graphs) {
    const NodeId n = g.num_nodes();
    const BfsTree tree = oracle_bfs_tree(g, 0);
    const PreparationResult prep = run_preparation(g, tree);
    ASSERT_TRUE(prep.ok) << gname;
    const P2pConfig pc = P2pConfig::for_graph(g);
    const SlotTime spp = PhaseClock(pc.slots).slots_per_phase();
    Rng pick(0x4E0 + n);
    std::vector<P2pRequest> reqs;
    for (std::uint64_t i = 0; i < 20; ++i)
      reqs.push_back({static_cast<NodeId>(pick.next_below(n)),
                      static_cast<NodeId>(pick.next_below(n)), 9000 + i});
    const std::vector<std::uint64_t> send_at = triangular(reqs.size());
    const SlotTime slots =
        (send_at.back() + 8 * (2 * tree.depth + 4)) * spp;
    RadioNetwork::Config two_channels;
    two_channels.num_channels = 2;
    using Node = Muxed<P2pUpStation, P2pDownStation>;
    for (const auto& [pname, plan] : piece_plans()) {
      const PieceRun run = expect_piece_matches(
          gname + "/" + pname, g, plan, slots,
          [&](NodeId v) {
            Node node{std::make_unique<P2pUpStation>(v, prep.routing[v], pc,
                                                     Rng(0x9B).split(2 * v)),
                      std::make_unique<P2pDownStation>(
                          v, prep.routing[v], pc, Rng(0x9B).split(2 * v + 1))};
            node.a->set_down(node.b.get());
            return node;
          },
          [](const Node& node) {
            Digest d;
            d << node.a->buffer_size() << node.b->buffer_size()
              << node.a->sink() << node.b->sink();
            return d.with_count(node.a->sink().size() +
                                node.b->sink().size());
          },
          two_channels,
          [&](SlotTime t, std::vector<Node>& nodes) {
            if (t % spp != 0) return;
            const auto i = index_in(send_at, t / spp);
            if (!i) return;
            const P2pRequest& r = reqs[*i];
            nodes[r.src].a->send(prep.labels.number[r.dst], r.payload);
          });
      if (plan.any()) continue;
      std::uint64_t delivered = 0;
      for (const std::uint64_t s : run.state) delivered += count_of(s);
      EXPECT_EQ(delivered, reqs.size()) << gname;
    }
  }
}

/// BroadcastService's composition: CollectionStation on channel 0 and
/// DistributionStation on channel 1 under one mux, window 4 (or, with
/// `Pair` = TimeDivided, both on one channel in alternate slots, given
/// twice the slots). Every third node broadcasts once; non-roots send
/// their NACKs and checkpoint acks up the collection channel, and the
/// root's collection handler feeds data, NACKs and acks to its
/// distribution sender, so root_enqueue runs whenever a message reaches
/// the root. A node repeats
/// a missing message's NACK every `nack_retry` superphases.
template <template <typename, typename> class Pair = Muxed>
void k_broadcast_mux(
    const std::string& gname, const Graph& g, const std::string& pname,
    const FaultPlan& plan,
    std::uint32_t nack_retry = DistributionConfig{}.nack_retry_superphases) {
  constexpr bool kTimeDivided =
      std::is_same_v<Pair<int, int>, TimeDivided<int, int>>;
  const NodeId n = g.num_nodes();
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig bc = BroadcastServiceConfig::for_graph(g);
  bc.distribution.window = 4;
  bc.distribution.nack_retry_superphases = nack_retry;
  const std::uint64_t k = (n + 2) / 3;
  const SlotTime sps =
      DistributionStation(0, tree, bc.distribution, Rng(0))
          .slots_per_superphase();
  const SlotTime slots =
      (kTimeDivided ? 2 : 1) * 3 * (tree.depth + 3 * k + 16) * sps;
  RadioNetwork::Config engine;
  engine.num_channels = kTimeDivided ? 1 : 2;
  using Node = Pair<CollectionStation, DistributionStation>;
  // The mux sleeps; a time-division node is polled in every slot.
  const auto expect_matches = [&](auto make, auto state) {
    if constexpr (kTimeDivided) {
      return expect_always_polled_piece_matches(gname + "/" + pname, g, plan,
                                                slots, make, state, engine);
    } else {
      return expect_piece_matches(gname + "/" + pname, g, plan, slots, make,
                                  state, engine);
    }
  };
  const PieceRun run = expect_matches(
      [&](NodeId v) {
        Node node{std::make_unique<CollectionStation>(
                      v, tree, bc.collection, Rng(0xB5).split(2 * v)),
                  std::make_unique<DistributionStation>(
                      v, tree, bc.distribution,
                      Rng(0xB5).split(2 * v + 1))};
        CollectionStation* up = node.a.get();
        auto seq = std::make_shared<std::uint32_t>(0);
        const auto send_up = [up, seq, v](MsgKind kind) {
          return [up, seq, v, kind](std::uint64_t aux) {
            Message m;
            m.kind = kind;
            m.origin = v;
            m.seq = (*seq)++;
            m.aux = static_cast<std::uint32_t>(aux);
            m.payload = aux;
            up->inject(m);
          };
        };
        if (v == tree.root) {
          DistributionStation* root = node.b.get();
          up->set_root_handler([root](SlotTime, const Message& m) {
            if (m.kind == MsgKind::kData) root->root_enqueue(m);
            if (m.kind == MsgKind::kNack) root->root_request_resend(m.aux);
            if (m.kind == MsgKind::kSetupReport)
              root->root_checkpoint_ack(m.origin, m.aux);
          });
        } else {
          node.b->set_control(send_up(MsgKind::kNack),
                              send_up(MsgKind::kSetupReport));
        }
        if (v % 3 == 0) send_up(MsgKind::kData)(4000 + v);
        return node;
      },
      [](const Node& node) {
        const DistributionStation& dist = *node.b;
        Digest d;
        d << node.a->buffer_size() << node.a->root_sink()
          << dist.root_sent_fresh() << dist.root_resends()
          << dist.root_idle_rebroadcasts();
        for (const auto& [slot, seq] : dist.delivery_log()) d << slot << seq;
        return d.with_count(dist.delivered_prefix());
      });
  if (plan.any()) return;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    EXPECT_EQ(count_of(run.state[v]), k) << gname << " node " << v;
  }
}

TEST(AutosleepAB, KBroadcastIsByteIdenticalAndPollsLess) {
  k_broadcast_mux("grid5x5", gen::grid(5, 5), "nofault", FaultPlan{});
}

TEST(AutosleepAB, BroadcastDeliveryLogsIdenticalSlotForSlot) {
  // The state word digests every node's (slot, seq) delivery log.
  k_broadcast_mux("path18", gen::path(18), "nofault", FaultPlan{});
}

/// Long outages: a node whose parents stay down for two superphases
/// misses two waves and sleeps with a NACK still due, so its retry timer
/// alone must keep it polled (crash_plan's outages are too short).
FaultPlan outage_plan() {
  FaultPlan p;
  p.crash_rate = 0.02;
  p.recover_rate = 0.03;
  p.epoch_slots = 16;
  return p;
}

TEST(AutosleepAB, BroadcastIdenticalUnderFaultsToo) {
  const FaultPlan outage = outage_plan();
  const Graph path18 = gen::path(18);
  const Graph grid5x5 = gen::grid(5, 5);
  k_broadcast_mux("path18", path18, "crash", crash_plan());
  k_broadcast_mux("path18", path18, "outage", outage);
  k_broadcast_mux("grid5x5", grid5x5, "crash", crash_plan());
  k_broadcast_mux("grid5x5", grid5x5, "outage", outage);
}

TEST(AutosleepAB, NackRetriesAtEverySuperphaseStartMatchUnderOutages) {
  // Retry interval 1: a NACK still missing comes due again at the very
  // next superphase start, so a node waiting on a repair is polled there
  // by its own timer, and a boundary fired late or an arm missed would
  // re-issue the NACK in another slot.
  const FaultPlan outage = outage_plan();
  k_broadcast_mux("path18", gen::path(18), "outage/retry1", outage, 1);
  k_broadcast_mux("grid5x5", gen::grid(5, 5), "outage/retry1", outage, 1);
}

TEST(AutosleepAB, DistributionWithMidSuperphaseEnqueuesMatchesTheAlwaysPolledReference) {
  // The root pin: root_enqueue lands between slots in the middle of a
  // superphase. An always-polled root takes the message at the next
  // superphase boundary; a root that slept through its boundary would
  // take it at once, a superphase early. Window 0: no collection channel
  // carries checkpoint acks here.
  Rng topo(0xD157);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("path24", gen::path(24));
  graphs.emplace_back("grid5x5", gen::grid(5, 5));
  graphs.emplace_back("udg40", gen::unit_disk_connected(
                                   40, gen::udg_connect_radius(40), topo));
  for (const auto& [gname, g] : graphs) {
    const BfsTree tree = oracle_bfs_tree(g, 0);
    const DistributionConfig dc = DistributionConfig::for_graph(g);
    const SlotTime sps =
        DistributionStation(0, tree, dc, Rng(0)).slots_per_superphase();
    std::vector<std::uint64_t> enqueue_at = triangular(8);
    for (std::uint64_t& sp : enqueue_at) sp += 2;  // the root sleeps first
    const SlotTime slots = (enqueue_at.back() + tree.depth + 8) * sps;
    for (const auto& [pname, plan] : piece_plans()) {
      const PieceRun run = expect_piece_matches(
          gname + "/" + pname, g, plan, slots,
          [&](NodeId v) {
            return std::make_unique<DistributionStation>(v, tree, dc,
                                                         Rng(0xD5).split(v));
          },
          [](const DistributionStation& s) {
            Digest d;
            d << s.root_sent_fresh() << s.root_resends()
              << s.root_idle_rebroadcasts();
            for (const auto& [slot, seq] : s.delivery_log()) d << slot << seq;
            return d.with_count(s.delivered_prefix());
          },
          RadioNetwork::Config{},
          [&](SlotTime t, auto& nodes) {
            if (t % sps != sps / 2) return;
            const auto i = index_in(enqueue_at, t / sps);
            if (!i) return;
            Message m;
            m.kind = MsgKind::kData;
            m.origin = tree.root;
            m.payload = 6000 + *i;
            nodes[tree.root]->root_enqueue(m);
          });
      if (plan.any()) continue;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == tree.root) continue;
        EXPECT_EQ(count_of(run.state[v]), enqueue_at.size())
            << gname << " node " << v;
      }
    }
  }
}

TEST(AutosleepAB, TimeDivisionBroadcastMatchesTheAlwaysPolledReference) {
  // BroadcastService's time-division mode: the node wakes itself in every
  // slot and never hands its subs the Waker, so nothing sleeps.
  const Graph path18 = gen::path(18);
  const Graph grid5x5 = gen::grid(5, 5);
  for (const auto& [pname, plan] : piece_plans()) {
    k_broadcast_mux<TimeDivided>("path18", path18, pname, plan);
    k_broadcast_mux<TimeDivided>("grid5x5", grid5x5, pname, plan);
  }
}

/// VirtualEthernet's driver, between slots: a node reports round r up the
/// collection channel (an offer or an idle report; the root counts its own
/// at once) once it has observed r outcomes; when the root holds all n
/// reports of the next round it publishes the round's offer count on the
/// distribution channel, observing it itself at once. Every report and
/// outcome lands on a node that has slept since its last one. Each engine
/// runs its own copy, so the bookkeeping starts afresh.
struct EthernetRounds {
  NodeId root = 0;
  std::uint32_t rounds = 0;
  std::vector<std::uint32_t> started;  ///< rounds started, by node
  std::vector<std::uint32_t> reports, offers;  ///< by round, at the root
  std::size_t arrivals = 0;                    ///< root_sink entries read
  std::uint32_t published = 0;

  static bool offers_in(NodeId v, std::uint32_t r) { return (v + r) % 3 == 0; }

  template <typename Nodes>
  void operator()(SlotTime, Nodes& nodes) {
    const auto count = [this](std::uint32_t r, bool offer) {
      ++reports[r];
      offers[r] += offer ? 1 : 0;
    };
    const auto& sink = nodes[root].a->root_sink();
    for (; arrivals < sink.size(); ++arrivals)
      count(sink[arrivals].msg.aux, sink[arrivals].msg.payload != 0);
    while (published < rounds && reports[published] == nodes.size()) {
      Message out;
      out.origin = root;
      out.payload = offers[published];
      nodes[root].b->root_enqueue(out);
      ++published;
    }
    for (NodeId v = 0; v < nodes.size(); ++v) {
      const std::uint32_t seen =
          v == root ? published : nodes[v].b->delivered_prefix();
      for (; started[v] < rounds && started[v] <= seen; ++started[v]) {
        const std::uint32_t r = started[v];
        if (v == root) {
          count(r, offers_in(v, r));
          continue;
        }
        Message m;
        m.kind = MsgKind::kData;
        m.origin = v;
        m.seq = r;
        m.aux = r;
        m.payload = offers_in(v, r) ? 1 : 0;
        nodes[v].a->inject(m);
      }
    }
  }
};

TEST(AutosleepAB, EthernetBusSleepsAndMatchesTheAlwaysPolledReference) {
  // The ethernet bus's collection + distribution mux now sleeps like the
  // k-broadcast one: between its report and the round's outcome a node
  // has nothing to do.
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("grid4x4", gen::grid(4, 4));
  graphs.emplace_back("path10", gen::path(10));
  constexpr std::uint32_t kRounds = 6;
  for (const auto& [gname, g] : graphs) {
    const NodeId n = g.num_nodes();
    const BfsTree tree = oracle_bfs_tree(g, 0);
    const VirtualEthernet::Config ec = VirtualEthernet::Config::for_graph(g);
    const SlotTime sps =
        DistributionStation(0, tree, ec.distribution, Rng(0))
            .slots_per_superphase();
    const SlotTime slots = kRounds * (2 * tree.depth + 12) * sps;
    RadioNetwork::Config two_channels;
    two_channels.num_channels = 2;
    using Node = Muxed<CollectionStation, DistributionStation>;
    EthernetRounds drive;
    drive.root = tree.root;
    drive.rounds = kRounds;
    drive.started.assign(n, 0);
    drive.reports.assign(kRounds, 0);
    drive.offers.assign(kRounds, 0);
    for (const auto& [pname, plan] : piece_plans()) {
      const PieceRun run = expect_piece_matches(
          gname + "/" + pname, g, plan, slots,
          [&](NodeId v) {
            return Node{std::make_unique<CollectionStation>(
                            v, tree, ec.collection, Rng(0xE7).split(2 * v)),
                        std::make_unique<DistributionStation>(
                            v, tree, ec.distribution,
                            Rng(0xE7).split(2 * v + 1))};
          },
          [](const Node& node) {
            const DistributionStation& dist = *node.b;
            Digest d;
            d << node.a->buffer_size() << node.a->root_sink()
              << dist.root_sent_fresh();
            for (const auto& [slot, seq] : dist.delivery_log())
              d << slot << seq;
            return d.with_count(dist.delivered_prefix());
          },
          two_channels, drive);
      if (plan.any()) continue;
      for (NodeId v = 0; v < n; ++v) {
        if (v == tree.root) continue;
        EXPECT_EQ(count_of(run.state[v]), kRounds) << gname << " node " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The TDMA and round-robin frame stations sleep until their frame slot, the
// scripted wave station until its next transmit slot. All stay
// byte-identical to the reference.
// ---------------------------------------------------------------------------

TEST(AutosleepAB, BaselinesMatchTheReference) {
  Rng topo(0xBA5E);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("grid5x5", gen::grid(5, 5));
  graphs.emplace_back("udg30", gen::unit_disk_connected(
                                   30, gen::udg_connect_radius(30), topo));
  for (const auto& [gname, g] : graphs) {
    const NodeId n = g.num_nodes();
    const BfsTree tree = oracle_bfs_tree(g, 0);
    const baselines::WaveSchedule wave =
        baselines::compute_wave_schedule(g, 0);
    for (const auto& [pname, plan] : piece_plans()) {
      const std::string cell = gname + "/" + pname;

      const PieceRun tdma = expect_piece_matches(
          cell + "/tdma", g, plan, 2 * SlotTime{n} * (n + tree.depth),
          [&](NodeId v) {
            auto s = std::make_unique<baselines::TdmaStation>(
                v, n, tree.parent[v], v == tree.root);
            if (v != tree.root) s->enqueue(one_data_message_each(g)[v - 1]);
            return s;
          },
          [](const baselines::TdmaStation& s) { return s.delivered(); });
      if (!plan.any()) {
        EXPECT_EQ(tdma.state[tree.root], n - 1u) << cell;
      }

      expect_piece_matches(
          cell + "/round_robin", g, plan, SlotTime{n} * (tree.depth + 2),
          [&](NodeId v) {
            auto s = std::make_unique<baselines::RoundRobinStation>(v, n);
            if (v == 0) s->seed();
            return s;
          },
          [](const baselines::RoundRobinStation& s) {
            return (std::uint64_t{s.informed()} << 63) | s.informed_at();
          });

      std::vector<std::vector<bool>> script(
          n, std::vector<bool>(wave.rounds.size(), false));
      for (std::size_t t = 0; t < wave.rounds.size(); ++t)
        for (const NodeId u : wave.rounds[t]) script[u][t] = true;
      expect_piece_matches(
          cell + "/wave", g, plan, wave.rounds.size() + 4,
          [&](NodeId v) {
            auto s = std::make_unique<baselines::ScriptedStation>(v, script[v]);
            if (v == 0) s->force_informed();
            return s;
          },
          [](const baselines::ScriptedStation& s) {
            return std::uint64_t{s.informed()};
          });
    }
  }
}

}  // namespace
}  // namespace radiomc
