// Online health monitoring (src/health/): rule-spec parsing, window and
// hysteresis math, the Monitor's radiomc.health/v1 stream (golden layout,
// warmup gating, footer discipline, flag contracts), determinism across
// reruns and job counts, observer purity (a monitored run is byte-identical
// to a bare one), and the E17-style alert matrix: stable regimes trip
// nothing, overload and jamming trip the expected rules.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "health/monitor.h"
#include "health/recorder.h"
#include "health/rules.h"
#include "protocols/tree.h"
#include "service/service.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace radiomc::health {
namespace {

using radiomc::BfsTree;
using radiomc::Graph;
using radiomc::Message;
using radiomc::MsgKind;
using radiomc::Rng;

/// Runs `fn`, which must throw std::invalid_argument, and returns the
/// message so the caller can pin the substring (specific error messages
/// are part of the interface, per the --trace-agg convention).
template <typename Fn>
std::string InvalidMessage(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

#define EXPECT_MSG(call, substr)                                      \
  do {                                                                \
    const std::string msg_ = InvalidMessage([&] { call; });           \
    EXPECT_NE(msg_.find(substr), std::string::npos) << msg_;          \
  } while (0)

// ---------------------------------------------------------------------------
// Rule-spec parsing.
// ---------------------------------------------------------------------------

constexpr const char* kDefaultCanonical =
    "throughput:0.9:0.95,sojourn:3:2.5,qgrowth:0.5:0.25,stall:2,"
    "hotspot:0.5:0.25:16,neighbor:0.9:0.75:8";

TEST(RuleParse, DefaultBatteryCanonicalIsPinned) {
  EXPECT_EQ(RuleSet::parse("default").canonical(), kDefaultCanonical);
}

TEST(RuleParse, CanonicalRoundTrips) {
  const std::vector<std::string> specs = {
      "default", "throughput:0.8", "stall:5,hotspot:0.6:0.3:20",
      "neighbor:0.95:0.5:4,sojourn:4:2"};
  for (const std::string& s : specs) {
    const std::string canon = RuleSet::parse(s).canonical();
    EXPECT_EQ(RuleSet::parse(canon).canonical(), canon) << s;
  }
}

TEST(RuleParse, RejectsWithSpecificMessages) {
  EXPECT_MSG(RuleSet::parse(""), "empty spec");
  EXPECT_MSG(RuleSet::parse("throughput,"), "empty clause");
  EXPECT_MSG(RuleSet::parse("bogus"), "unknown rule 'bogus'");
  EXPECT_MSG(RuleSet::parse("throughput:x"), "bad number 'x'");
  EXPECT_MSG(RuleSet::parse("throughput:0.9:0.8"),
             "throughput needs 0 < trip <= clear");
  EXPECT_MSG(RuleSet::parse("sojourn:2:3"), "sojourn needs trip >= clear > 0");
  EXPECT_MSG(RuleSet::parse("qgrowth:0.2:0.5"),
             "qgrowth needs trip >= clear >= 0");
  EXPECT_MSG(RuleSet::parse("stall:0"),
             "stall windows must be a positive integer");
  EXPECT_MSG(RuleSet::parse("stall:1.5"),
             "stall windows must be a positive integer");
  EXPECT_MSG(RuleSet::parse("hotspot:1.5"), "hotspot needs");
  EXPECT_MSG(RuleSet::parse("neighbor:0.9:0.75:0"),
             "min count must be a positive integer");
  EXPECT_MSG(RuleSet::parse("neighbor:0.5:0.9"), "neighbor needs");
  EXPECT_MSG(RuleSet::parse("hotspot:0.5:0.25:16:9"), "too many parameters");
  EXPECT_MSG(RuleSet::parse("default:1"), "'default' takes no parameters");
  EXPECT_MSG(RuleSet::parse("default,stall:2"),
             "'default' cannot be combined");
  EXPECT_MSG(RuleSet::parse("stall:2,stall:3"), "duplicate rule 'stall'");
}

// ---------------------------------------------------------------------------
// Window and hysteresis math, on synthetic WindowStats.
// ---------------------------------------------------------------------------

WindowStats Window(std::uint64_t n) {
  WindowStats w;
  w.window = n;
  w.phase_end = (n + 1) * 64 - 1;
  w.phases = 64;
  return w;
}

TEST(RuleMath, ThroughputTripsOnDeficitAndLatchesUntilClear) {
  RuleEngine eng(RuleSet::parse("throughput:0.9:0.95"));
  const FlightRecorder rec({});
  const auto feed = [&](double rate, std::uint64_t phases) {
    WindowStats w = Window(0);
    w.offered_rate = 1.0;
    w.eval_phases = phases;
    w.eval_delivered = static_cast<std::uint64_t>(rate * phases);
    return eng.evaluate(w, rec);
  };
  // Long horizon: slack = 3*sqrt(1/90000) = 0.01.
  auto tr = feed(0.80, 90'000);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr[0].rule, RuleKind::kThroughput);
  EXPECT_TRUE(tr[0].trip);
  // 0.91 is above the trip floor but below the clear bar: stays latched.
  EXPECT_TRUE(feed(0.91, 90'000).empty());
  EXPECT_EQ(eng.active(), 1u);
  // Crossing the (stricter) clear bar releases the latch.
  tr = feed(0.95, 90'000);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
  EXPECT_EQ(eng.active(), 0u);
  EXPECT_EQ(eng.trips(), 1u);
  EXPECT_EQ(eng.clears(), 1u);
}

TEST(RuleMath, ThroughputSlackForgivesShortHorizons) {
  // Over 64 phases the 3-sigma slack is 3*sqrt(1/64) = 0.375: even a zero
  // delivery count cannot trip (0 is not < 0.9 - 0.375... it is, so pick
  // 16 phases where slack = 0.75 and the floor sits at 0.15 with a rate of
  // 0.2 staying above it) — sampling noise alone never fires the rule.
  RuleEngine eng(RuleSet::parse("throughput:0.9:0.95"));
  const FlightRecorder rec({});
  WindowStats w = Window(0);
  w.offered_rate = 1.0;
  w.eval_phases = 16;
  w.eval_delivered = 3;  // rate 0.1875 > 0.9 - 0.75
  EXPECT_TRUE(eng.evaluate(w, rec).empty());
  // The same rate over a long horizon is a real deficit.
  w.eval_phases = 10'000;
  w.eval_delivered = 1'875;
  EXPECT_EQ(eng.evaluate(w, rec).size(), 1u);
}

TEST(RuleMath, QueueGrowthSlopeTripsAndClears) {
  RuleEngine eng(RuleSet::parse("qgrowth:0.5:0.25"));
  const FlightRecorder rec({});
  WindowStats w = Window(0);
  w.offered_rate = 1.0;
  w.in_system_begin = 0;
  w.in_system_end = 40;  // slope 40/64 = 0.625 >= 0.5
  auto tr = eng.evaluate(w, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  w.in_system_begin = 40;
  w.in_system_end = 50;  // slope 0.156 < 0.25
  tr = eng.evaluate(w, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
}

TEST(RuleMath, StallNeedsConsecutiveZeroDeliveryWindows) {
  RuleEngine eng(RuleSet::parse("stall:2"));
  const FlightRecorder rec({});
  WindowStats stuck = Window(0);
  stuck.delivered = 0;
  stuck.in_system_end = 5;  // messages in flight, nothing moving
  WindowStats moving = Window(1);
  moving.delivered = 3;
  moving.in_system_end = 5;
  EXPECT_TRUE(eng.evaluate(stuck, rec).empty());   // streak 1: not yet
  EXPECT_TRUE(eng.evaluate(moving, rec).empty());  // streak resets
  EXPECT_TRUE(eng.evaluate(stuck, rec).empty());
  auto tr = eng.evaluate(stuck, rec);  // streak 2: trips
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  tr = eng.evaluate(moving, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
}

TEST(RuleMath, SojournJudgedAgainstTheoremEnvelope) {
  RuleEngine eng(RuleSet::parse("sojourn:3:2.5"));
  const FlightRecorder rec({});
  WindowStats w = Window(0);
  w.envelope_phases = 100.0;
  w.delivered = 10;
  w.mean_sojourn = 301.0;  // > 3 * 100
  auto tr = eng.evaluate(w, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  // Above saturation there is no finite envelope: the rule idles latched.
  w.envelope_phases = std::nan("");
  EXPECT_TRUE(eng.evaluate(w, rec).empty());
  EXPECT_EQ(eng.active(), 1u);
  w.envelope_phases = 100.0;
  w.mean_sojourn = 200.0;  // <= 2.5 * 100
  tr = eng.evaluate(w, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
}

TEST(RuleMath, HotspotPinpointsTheLevelAndIgnoresJams) {
  RuleEngine eng(RuleSet::parse("hotspot:0.5:0.25:16"));
  FlightRecorder rec({0, 1, 1, 1, 2});
  // 18 genuine collisions at level 1, 2 at level 2: share 0.9, total 20.
  for (int i = 0; i < 18; ++i) rec.on_collision(0, 1, 0, 2);
  for (int i = 0; i < 2; ++i) rec.on_collision(0, 4, 0, 3);
  // Jam-killed receptions (one transmitting neighbor) must not count.
  for (int i = 0; i < 50; ++i) rec.on_collision(0, 2, 0, 1);
  EXPECT_EQ(rec.window_collisions(), 20u);
  EXPECT_EQ(rec.window_jams(), 50u);
  WindowStats w = Window(0);
  auto tr = eng.evaluate(w, rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  EXPECT_EQ(tr[0].detail, "level=1");
  // A quiet window clears (total below min).
  rec.roll_window();
  tr = eng.evaluate(Window(1), rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
}

Message DataFrom(NodeId sender) {
  Message m;
  m.kind = MsgKind::kData;
  m.sender = sender;
  return m;
}

TEST(RuleMath, NeighborSilentIsGatedByHistoricalShare) {
  RuleEngine eng(RuleSet::parse("neighbor:0.9:0.75:3"));
  FlightRecorder rec({});
  // History: receiver 0 hears senders 1, 2, 3 equally (8 each).
  for (int i = 0; i < 8; ++i) {
    rec.on_deliver(0, 0, 0, DataFrom(1));
    rec.on_deliver(0, 0, 0, DataFrom(2));
    rec.on_deliver(0, 0, 0, DataFrom(3));
  }
  EXPECT_TRUE(eng.evaluate(Window(0), rec).empty());
  rec.roll_window();
  // Sender 3 goes dark while 1 and 2 keep their rate: its share says it
  // owed 8/40 * 16 = 3.2 >= 3 receptions — silent trips.
  for (int i = 0; i < 8; ++i) {
    rec.on_deliver(0, 0, 0, DataFrom(1));
    rec.on_deliver(0, 0, 0, DataFrom(2));
  }
  auto tr = eng.evaluate(Window(1), rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  EXPECT_NE(tr[0].detail.find("silent node=0 peer=3"), std::string::npos)
      << tr[0].detail;
  // All three present again: no silent pair, dominance low — clears.
  rec.roll_window();
  for (int i = 0; i < 8; ++i) {
    rec.on_deliver(0, 0, 0, DataFrom(1));
    rec.on_deliver(0, 0, 0, DataFrom(2));
    rec.on_deliver(0, 0, 0, DataFrom(3));
  }
  tr = eng.evaluate(Window(2), rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_FALSE(tr[0].trip);
}

TEST(RuleMath, NeighborLowSharePeerQuietWindowIsNotSilent) {
  // A peer that historically contributes a sliver of the traffic owes
  // almost nothing per window: its quiet window must not read as an
  // outage (the false-positive the share gate exists to kill).
  RuleEngine eng(RuleSet::parse("neighbor:0.95:0.75:8"));
  FlightRecorder rec({});
  for (int i = 0; i < 64; ++i) rec.on_deliver(0, 0, 0, DataFrom(1));
  for (int i = 0; i < 62; ++i) rec.on_deliver(0, 0, 0, DataFrom(2));
  rec.on_deliver(0, 0, 0, DataFrom(3));  // 1 of 127 ever
  EXPECT_TRUE(eng.evaluate(Window(0), rec).empty());
  rec.roll_window();
  for (int i = 0; i < 64; ++i) {
    rec.on_deliver(0, 0, 0, DataFrom(1));
    rec.on_deliver(0, 0, 0, DataFrom(2));
  }
  // Sender 3 absent, but owed only ~1 reception; dominance 0.5 < 0.95.
  EXPECT_TRUE(eng.evaluate(Window(1), rec).empty());
}

TEST(RuleMath, NeighborChatterRequiresHistoricalDiversity) {
  RuleEngine eng(RuleSet::parse("neighbor:0.9:0.75:3"));
  FlightRecorder rec({});
  // A chain node hears exactly one sender, always: topology, not
  // pathology — dominance 1.0 must not trip with distinct_ever == 1.
  for (int i = 0; i < 16; ++i) rec.on_deliver(0, 5, 0, DataFrom(6));
  EXPECT_TRUE(eng.evaluate(Window(0), rec).empty());
  // Receiver 0 historically hears two senders; one then dominates.
  for (int i = 0; i < 8; ++i) {
    rec.on_deliver(0, 0, 0, DataFrom(1));
    rec.on_deliver(0, 0, 0, DataFrom(2));
  }
  rec.roll_window();
  for (int i = 0; i < 16; ++i) rec.on_deliver(0, 0, 0, DataFrom(1));
  for (int i = 0; i < 1; ++i) rec.on_deliver(0, 0, 0, DataFrom(2));
  auto tr = eng.evaluate(Window(1), rec);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_TRUE(tr[0].trip);
  EXPECT_NE(tr[0].detail.find("chatter node=0 peer=1"), std::string::npos)
      << tr[0].detail;
}

// ---------------------------------------------------------------------------
// Monitor: stream layout, warmup gating, footer, flag contracts.
// ---------------------------------------------------------------------------

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

HealthConfig SmallConfig() {
  HealthConfig cfg;
  cfg.window_phases = 4;
  cfg.rules = "default";
  cfg.offered_rate = 1.0;
  cfg.depth = 3;
  cfg.warmup_phases = 0;
  return cfg;
}

PhaseSample Sample(std::uint64_t phase, std::uint64_t arrivals,
                   std::uint64_t delivered) {
  PhaseSample s;
  s.phase = phase;
  s.arrivals = arrivals;
  s.delivered = delivered;
  s.sojourn_sum = static_cast<double>(delivered);
  s.in_system = arrivals - delivered;
  s.engine_polls = phase * 10;
  s.wake_events = phase * 2;
  return s;
}

TEST(Monitor, WindowPacingSchemaAndFooter) {
  std::ostringstream out;
  Monitor mon({0, 1, 1, 2}, SmallConfig(), out);
  ASSERT_TRUE(mon.ok());
  for (std::uint64_t p = 0; p < 10; ++p)
    mon.on_phase(Sample(p, (p + 1) * 2, (p + 1) * 2));
  mon.finish();
  const std::vector<std::string> lines = Lines(out.str());
  // 10 phases at window 4: two closed windows + schema + footer.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "{\"ev\":\"schema\",\"v\":\"radiomc.health/v1\",\"window\":4,"
            "\"warmup\":0,\"lambda\":1,\"mu\":0.23254415793482963,"
            "\"depth\":3,\"rules\":\"" +
                std::string(kDefaultCanonical) + "\"}");
  EXPECT_EQ(lines[1],
            "{\"ev\":\"window\",\"n\":0,\"phase\":3,\"arrivals\":8,"
            "\"delivered\":8,\"in_system\":0,\"mean_sojourn\":1,\"tx\":0,"
            "\"collisions\":0,\"jams\":0,\"polls\":30,\"wakes\":6}");
  EXPECT_EQ(lines[3],
            "{\"ev\":\"end\",\"phase\":9,\"windows\":2,\"trips\":0,"
            "\"clears\":0,\"active\":0,\"clean\":true}");
  EXPECT_EQ(mon.windows(), 2u);
  EXPECT_EQ(mon.trips(), 0u);
}

TEST(Monitor, SustainedDeficitTripsThroughputOnce) {
  HealthConfig cfg = SmallConfig();
  cfg.window_phases = 1000;
  cfg.rules = "throughput";
  std::ostringstream out;
  Monitor mon({}, cfg, out);
  // lambda = 1, zero deliveries: by the first window close the slack
  // 3*sqrt(1/1000) ~ 0.095 is well under the 0.9 floor.
  for (std::uint64_t p = 0; p < 3000; ++p) {
    PhaseSample s;
    s.phase = p;
    s.arrivals = p + 1;
    s.in_system = p + 1;
    mon.on_phase(s);
  }
  mon.finish();
  EXPECT_EQ(mon.trips(), 1u);  // latched: one trip, no chatter
  EXPECT_EQ(mon.active(), 1u);
  EXPECT_NE(out.str().find("{\"ev\":\"alert\",\"rule\":\"throughput\","
                           "\"state\":\"trip\",\"n\":0,\"phase\":999,"),
            std::string::npos)
      << out.str();
}

TEST(Monitor, WarmupGatesRuleEvaluation) {
  HealthConfig cfg = SmallConfig();
  cfg.window_phases = 1000;
  cfg.rules = "throughput";
  cfg.warmup_phases = 10'000;  // longer than the run: rules never eligible
  std::ostringstream out;
  Monitor mon({}, cfg, out);
  for (std::uint64_t p = 0; p < 3000; ++p) {
    PhaseSample s;
    s.phase = p;
    s.arrivals = p + 1;
    s.in_system = p + 1;
    mon.on_phase(s);
  }
  mon.finish();
  EXPECT_EQ(mon.windows(), 3u);  // facts still recorded...
  EXPECT_EQ(mon.trips(), 0u);    // ...but no rule ever fires
}

TEST(Monitor, FinishIsIdempotent) {
  std::ostringstream out;
  Monitor mon({}, SmallConfig(), out);
  mon.on_phase(Sample(0, 1, 1));
  mon.finish();
  mon.finish();
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);  // schema + one footer, no partial window
  EXPECT_NE(lines[1].find("\"ev\":\"end\""), std::string::npos);
}

TEST(Monitor, UnwritablePathReportsNotOk) {
  Monitor mon({}, SmallConfig(), "/nonexistent-dir/health.jsonl");
  EXPECT_FALSE(mon.ok());
}

TEST(MonitorFlags, ContractsRejectWithSpecificMessages) {
  EXPECT_MSG(Monitor::validate_flags(false, true, false, 64),
             "--alert-rules requires --health-out (nowhere to stream "
             "alerts)");
  EXPECT_MSG(Monitor::validate_flags(false, false, true, 64),
             "--health-window requires --health-out (no stream to pace)");
  EXPECT_MSG(Monitor::validate_flags(true, false, true, 0),
             "--health-window must be a positive phase count");
  EXPECT_NO_THROW(Monitor::validate_flags(true, true, true, 64));
  EXPECT_NO_THROW(Monitor::validate_flags(false, false, false, 64));
}

// ---------------------------------------------------------------------------
// Service integration: the full pipeline, determinism, observer purity,
// and the alert matrix on real regimes.
// ---------------------------------------------------------------------------

struct ServiceRun {
  std::string stream;
  std::uint64_t trips = 0;
  std::uint64_t windows = 0;
  service::ServeOutcome out;
};

ServiceRun RunMonitored(const Graph& g, const std::string& arrival,
                        std::uint64_t phases, std::uint64_t warmup,
                        std::uint64_t seed,
                        service::AdmissionPolicy policy =
                            service::AdmissionPolicy::kOff,
                        double envelope = 8.0, double jam_prob = 0.0) {
  const BfsTree tree = oracle_bfs_tree(g, 0);
  service::ServeConfig cfg;
  cfg.arrival = service::ArrivalSpec::parse(arrival);
  cfg.admission.policy = policy;
  cfg.admission.envelope_multiple = envelope;
  cfg.phases = phases;
  cfg.warmup_phases = warmup;
  cfg.faults.jam_prob = jam_prob;

  HealthConfig hcfg;
  hcfg.window_phases = 64;
  hcfg.rules = "default";
  hcfg.offered_rate = cfg.arrival.mean_rate();
  hcfg.depth = tree.depth;
  hcfg.warmup_phases = warmup;

  ServiceRun r;
  std::ostringstream out;
  Monitor mon(tree.level, hcfg, out);
  cfg.health = &mon;
  r.out = service::run_service(g, tree, cfg, seed);
  mon.finish();
  r.stream = out.str();
  r.trips = mon.trips();
  r.windows = mon.windows();
  return r;
}

TEST(HealthService, StableRegimeTripsNothingAndStreamIsDeterministic) {
  const Graph g = gen::grid(4, 4);
  const ServiceRun a = RunMonitored(g, "bernoulli:0.1", 600, 100, 42);
  const ServiceRun b = RunMonitored(g, "bernoulli:0.1", 600, 100, 42);
  EXPECT_EQ(a.stream, b.stream);  // byte-identical rerun
  EXPECT_EQ(a.trips, 0u);
  EXPECT_EQ(a.windows, 10u);  // (600 + 100) / 64
  const std::vector<std::string> lines = Lines(a.stream);
  ASSERT_GE(lines.size(), 12u);
  EXPECT_NE(lines[0].find("\"v\":\"radiomc.health/v1\""), std::string::npos);
  EXPECT_EQ(lines.back(),
            "{\"ev\":\"end\",\"phase\":699,\"windows\":10,\"trips\":0,"
            "\"clears\":0,\"active\":0,\"clean\":true}");
}

TEST(HealthService, StreamIsJobCountInvariant) {
  // Four monitored runs evaluated on the deterministic trial pool: the
  // health streams must be byte-identical across --jobs 1 and --jobs 8.
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const auto run_all = [&seeds](unsigned jobs) {
    Rng root(0xBEE);
    return run_trials(seeds.size(), jobs, root,
                      [&seeds](std::size_t i, Rng&) {
                        const Graph g = gen::grid(4, 4);
                        return RunMonitored(g, "bernoulli:0.1", 200, 50,
                                            seeds[i])
                            .stream;
                      });
  };
  const auto serial = run_all(1);
  const auto parallel = run_all(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "seed index " << i;
}

TEST(HealthService, MonitorDoesNotPerturbTheRun) {
  // Observer purity: a monitored run and a bare run of the same config
  // must agree on every outcome field the driver reports.
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  service::ServeConfig cfg;
  cfg.arrival = service::ArrivalSpec::parse("bernoulli:0.1");
  cfg.phases = 300;
  cfg.warmup_phases = 50;

  const service::ServeOutcome bare = service::run_service(g, tree, cfg, 7);

  HealthConfig hcfg;
  hcfg.offered_rate = 0.1;
  hcfg.depth = tree.depth;
  hcfg.warmup_phases = 50;
  std::ostringstream out;
  Monitor mon(tree.level, hcfg, out);
  cfg.health = &mon;
  const service::ServeOutcome obs = service::run_service(g, tree, cfg, 7);

  EXPECT_EQ(bare.slots, obs.slots);
  EXPECT_EQ(bare.arrivals, obs.arrivals);
  EXPECT_EQ(bare.admitted, obs.admitted);
  EXPECT_EQ(bare.delivered, obs.delivered);
  EXPECT_EQ(bare.duplicates, obs.duplicates);
  EXPECT_EQ(bare.backlog, obs.backlog);
  EXPECT_EQ(bare.engine_polls, obs.engine_polls);
}

TEST(HealthService, OverloadTripsHotspotOnTheContendedLevel) {
  // star:24 at poisson 0.8 with shedding: every leaf fights for the one
  // receiver, so genuine collisions concentrate on a single BFS level.
  const Graph g = gen::star(24);
  const ServiceRun r =
      RunMonitored(g, "poisson:0.8", 1200, 300, 5,
                   service::AdmissionPolicy::kShed, 1.0);
  EXPECT_GT(r.trips, 0u);
  EXPECT_NE(r.stream.find("\"rule\":\"hotspot\",\"state\":\"trip\""),
            std::string::npos)
      << r.stream;
  EXPECT_NE(r.stream.find("\"detail\":\"level="), std::string::npos);
}

TEST(HealthService, JammingTripsTheThroughputFloor) {
  // The same overload cell with 20% slot jamming: deliveries crater, and
  // the cumulative post-warmup rate falls through the floor for good.
  const Graph g = gen::star(24);
  const ServiceRun r =
      RunMonitored(g, "poisson:0.8", 1200, 300, 5,
                   service::AdmissionPolicy::kShed, 1.0, /*jam_prob=*/0.2);
  EXPECT_NE(r.stream.find("\"rule\":\"throughput\",\"state\":\"trip\""),
            std::string::npos)
      << r.stream;
}

}  // namespace
}  // namespace radiomc::health
