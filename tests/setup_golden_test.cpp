// Golden pins for the full setup phase. The kCells values were recorded on
// the engine before setup stations learned to sleep (timed wakes), with
// the completion flood relaying for its whole epoch, and must never be
// re-recorded: those cells run with flood_relay_mult = 0. Sleeping only
// changes which idle polls the engine skips, so everything observable
// stays byte-identical: the outcome, the tree, labels and routing, every
// NetMetrics field and the JSONL trace bytes. Each cell runs exactly what
//
//   radiomc_sim setup --topology SPEC --seed SEED
//
// runs (graph and setup seed drawn from one Rng(SEED)), with telemetry and
// a trace sink attached. The fault-free cells also bound the polls: setup
// stations sleep through the idle bulk of their fixed schedule.
//
// The kBounded cells rerun the single-attempt cells under the default
// relay budget (bgi_broadcast.h): the flood sends fewer messages, and
// nothing but its radio counters and the trace may move.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/topology_spec.h"
#include "protocols/setup.h"
#include "support/rng.h"
#include "support/rng_tags.h"
#include "support/util.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/telemetry.h"

#include "golden_hash.h"

namespace radiomc {
namespace {

struct Golden {
  bool ok;
  RunStatus status;
  SlotTime slots;
  SlotTime work_slots;
  std::uint32_t attempts;
  NodeId leader;
  std::uint64_t structure;  ///< tree parents + labels + routing
  // NetMetrics, field by field.
  std::uint64_t transmissions, deliveries, collisions, capture_deliveries;
  std::uint64_t fault_jams, fault_drops, fault_link_blocked;
  std::uint64_t fault_crashed_slots;
  std::uint64_t trace;  ///< JSONL trace bytes
};

struct Cell {
  const char* name;
  const char* spec;
  std::uint64_t seed;
  std::uint32_t random_id_bits;
  bool crashes;
  std::uint32_t max_attempts;
  Golden golden;
};

/// Crash churn confined to the first attempt of a grid:6x6 setup, so a
/// crash spans epoch boundaries and the restart path runs.
FaultPlan crash_churn() {
  FaultPlan p;
  p.crash_rate = 0.02;
  p.recover_rate = 0.3;
  p.epoch_slots = 512;
  p.window_end = 30000;
  return p;
}

/// The cell's tuning with the flood relaying for its whole epoch, as when
/// the pins were recorded.
SetupTuning tuning_for(const Cell& c) {
  SetupTuning t;
  t.random_id_bits = c.random_id_bits;
  t.flood_relay_mult = 0;
  if (c.crashes) t.faults = crash_churn();
  return t;
}

std::uint64_t structure_hash(const SetupOutcome& o) {
  Fnv h;
  h.words(o.tree.parent);
  h.words(o.labels.number);
  h.words(o.labels.max_desc);
  for (const RoutingInfo& r : o.routing) {
    h.word(r.parent);
    h.word(r.level);
    h.word(r.number);
    h.word(r.max_desc);
    h.words(r.children);
    h.words(r.child_number);
    h.words(r.child_max_desc);
  }
  return h.value();
}

const Cell kCells[] = {
    // clang-format off
    {"grid16x16_s1", "grid:16x16", 1, 0, false, 12,
     {true, RunStatus::kOk, 205188, 109306, 1, 255, 0x5d1026c136b29541ULL, 541149, 282897, 169417, 0, 0, 0, 0, 0, 0xc6c2890f4cdc9921ULL}},
    {"grid16x16_s2", "grid:16x16", 2, 0, false, 12,
     {true, RunStatus::kOk, 205188, 105976, 1, 255, 0x19948189e44394dULL, 540927, 280584, 169532, 0, 0, 0, 0, 0, 0x5efb99fafe9c5334ULL}},
    {"grid16x16_s3", "grid:16x16", 3, 0, false, 12,
     {true, RunStatus::kOk, 205188, 107362, 1, 255, 0xb4a57438e4e2090dULL, 541418, 282152, 170214, 0, 0, 0, 0, 0, 0x83a6ec7f7359a755ULL}},
    {"grid16x16_s4", "grid:16x16", 4, 0, false, 12,
     {true, RunStatus::kOk, 205188, 108994, 1, 255, 0x542a0367f860f83dULL, 540638, 281803, 169828, 0, 0, 0, 0, 0, 0x947213ce7468b745ULL}},
    {"udg128_s1", "udg:128", 1, 0, false, 12,
     {true, RunStatus::kOk, 311844, 166610, 1, 127, 0x24d4b1a8c1d11e5eULL, 160078, 195496, 293415, 0, 0, 0, 0, 0, 0xaac45c300a9567c3ULL}},
    {"udg128_s2", "udg:128", 2, 0, false, 12,
     {true, RunStatus::kOk, 311844, 165458, 1, 127, 0x8642fef55b85d4beULL, 155764, 181948, 275898, 0, 0, 0, 0, 0, 0xb9703ef082995d6dULL}},
    {"udg128_s3", "udg:128", 3, 0, false, 12,
     {true, RunStatus::kOk, 311844, 166106, 1, 127, 0x669ca8205cc471a2ULL, 158115, 194944, 300240, 0, 0, 0, 0, 0, 0x7f3979b1528a325ULL}},
    {"udg128_s4", "udg:128", 4, 0, false, 12,
     {true, RunStatus::kOk, 311844, 165098, 1, 127, 0xf39653f2305c7152ULL, 157260, 189212, 270679, 0, 0, 0, 0, 0, 0x31ac2a7e3d008426ULL}},
    {"gnp96_s1", "gnp:96:0.06", 1, 0, false, 12,
     {true, RunStatus::kOk, 197108, 105242, 1, 95, 0x9af671b149516dd4ULL, 88000, 78015, 41798, 0, 0, 0, 0, 0, 0xc62710b349c7bed9ULL}},
    {"gnp96_s2", "gnp:96:0.06", 2, 0, false, 12,
     {true, RunStatus::kOk, 157764, 83954, 1, 95, 0x9ed9928b8cbb95aULL, 89950, 81218, 49692, 0, 0, 0, 0, 0, 0xa3b5a3723bcb72c1ULL}},
    {"gnp96_s3", "gnp:96:0.06", 3, 0, false, 12,
     {true, RunStatus::kOk, 157764, 84434, 1, 95, 0x95f195bacdc3932eULL, 88201, 75814, 41825, 0, 0, 0, 0, 0, 0xd37eabcb14c08936ULL}},
    {"gnp96_s4", "gnp:96:0.06", 4, 0, false, 12,
     {true, RunStatus::kOk, 157764, 84530, 1, 95, 0x7fcb0ce1c0f3c9e8ULL, 89275, 80600, 49772, 0, 0, 0, 0, 0, 0x52a06b93f31525e2ULL}},
    {"path6_random_ids", "path:6", 4, 2, false, 24,
     {true, RunStatus::kOk, 28084, 20142, 3, 1, 0xb3744d8de2e6a47dULL, 2229, 1095, 128, 0, 0, 0, 0, 0, 0xcd14d4c1abd8d2a1ULL}},
    {"grid6x6_crash_churn", "grid:6x6", 1, 0, true, 6,
     {true, RunStatus::kOk, 95144, 63604, 2, 35, 0xcb3324f414420fc0ULL, 29342, 22725, 8699, 0, 0, 0, 0, 95232, 0xefaf7c1d71e7d027ULL}},
    // clang-format on
};

/// The golden as a table row, so a mismatch prints the whole cell.
std::string row(const Golden& g) {
  std::ostringstream o;
  o << "{" << (g.ok ? "true" : "false") << ", RunStatus::"
    << (g.status == RunStatus::kOk         ? "kOk"
        : g.status == RunStatus::kDegraded ? "kDegraded"
                                           : "kFailed")
    << ", " << g.slots << ", " << g.work_slots << ", " << g.attempts << ", "
    << g.leader << ", 0x" << std::hex << g.structure << std::dec << "ULL, "
    << g.transmissions << ", " << g.deliveries << ", " << g.collisions
    << ", " << g.capture_deliveries << ", " << g.fault_jams << ", "
    << g.fault_drops << ", " << g.fault_link_blocked << ", "
    << g.fault_crashed_slots << ", 0x" << std::hex << g.trace << "ULL}";
  return o.str();
}

/// Prints a cell by name. Without it gtest prints the cell's raw bytes,
/// which include the address of `name`, so the listed test ids would change
/// from one process to the next.
void PrintTo(const Cell& c, std::ostream* os) { *os << c.name; }

/// Runs cell `c` with `relay_mult` as its flood relay budget and returns
/// what it observed.
Golden run_cell(const Cell& c, std::uint32_t relay_mult) {
  Rng rng(c.seed);
  const Graph g = gen::from_spec(c.spec, rng);
  const std::uint64_t setup_seed = rng.next();

  HashingBuf buf;
  std::ostream trace_out(&buf);
  SetupOutcome out;
  TelemetryHub hub;
  {
    telemetry::JsonlTraceSink trace(trace_out);
    trace.set_protocol("setup");
    SetupTuning tuning = tuning_for(c);
    tuning.flood_relay_mult = relay_mult;
    tuning.telemetry = &hub;
    tuning.trace = &trace;
    out = run_setup(g, setup_seed, tuning, c.max_attempts);
  }
  const auto net = [&](const char* name) {
    return hub.metrics.counter(name, {{"protocol", "setup"}}).value();
  };
  EXPECT_EQ(net("engine.slots"), out.slots);

  Golden got{out.ok,
             out.status,
             out.slots,
             out.work_slots,
             out.attempts,
             out.leader,
             structure_hash(out),
             net("engine.transmissions"),
             net("engine.deliveries"),
             net("engine.collisions"),
             net("engine.capture_deliveries"),
             net("engine.fault_jams"),
             net("engine.fault_drops"),
             net("engine.fault_link_blocked"),
             net("engine.fault_crashed_slots"),
             buf.value()};
  if (!c.crashes) {
    // Sleeping: at most 15 % of the station-slots are polled.
    EXPECT_LE(static_cast<double>(out.engine_polls),
              0.15 * static_cast<double>(out.slots) * g.num_nodes())
        << c.name;
  }
  return got;
}

class SetupGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(SetupGolden, PinnedToThePreSleepEngine) {
  const Cell& c = GetParam();
  EXPECT_EQ(row(run_cell(c, 0)), row(c.golden)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cells, SetupGolden, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& p) {
                           return std::string(p.param.name);
                         });

const Cell& cell_named(std::string_view name) {
  for (const Cell& c : kCells)
    if (name == c.name) return c;
  ADD_FAILURE() << "no cell " << name;
  return kCells[0];
}

/// A single-attempt cell of kCells under the default relay budget.
struct BoundedCell {
  const char* twin;  ///< the kCells cell it reruns
  Golden golden;
};

void PrintTo(const BoundedCell& c, std::ostream* os) { *os << c.twin; }

const BoundedCell kBounded[] = {
    // clang-format off
    {"grid16x16_s1",
     {true, RunStatus::kOk, 205188, 109306, 1, 255, 0x5d1026c136b29541ULL, 52481, 90215, 24402, 0, 0, 0, 0, 0, 0x456948250630e5daULL}},
    {"grid16x16_s2",
     {true, RunStatus::kOk, 205188, 105976, 1, 255, 0x19948189e44394dULL, 51362, 88196, 23911, 0, 0, 0, 0, 0, 0x899a79f8dea4a84bULL}},
    {"grid16x16_s3",
     {true, RunStatus::kOk, 205188, 107362, 1, 255, 0xb4a57438e4e2090dULL, 52881, 90121, 25194, 0, 0, 0, 0, 0, 0x1adac39cb1cd70baULL}},
    {"grid16x16_s4",
     {true, RunStatus::kOk, 205188, 108994, 1, 255, 0x542a0367f860f83dULL, 52481, 89006, 24808, 0, 0, 0, 0, 0, 0x82dc6fffa1c4f5dfULL}},
    {"udg128_s1",
     {true, RunStatus::kOk, 311844, 166610, 1, 127, 0x24d4b1a8c1d11e5eULL, 28712, 103854, 108393, 0, 0, 0, 0, 0, 0x55f3e0cfdda2bc81ULL}},
    {"udg128_s2",
     {true, RunStatus::kOk, 311844, 165458, 1, 127, 0x8642fef55b85d4beULL, 24363, 91255, 89761, 0, 0, 0, 0, 0, 0xc296c931a1930ec8ULL}},
    {"udg128_s3",
     {true, RunStatus::kOk, 311844, 166106, 1, 127, 0x669ca8205cc471a2ULL, 27401, 102933, 111266, 0, 0, 0, 0, 0, 0x429941a26380d1cbULL}},
    {"udg128_s4",
     {true, RunStatus::kOk, 311844, 165098, 1, 127, 0xf39653f2305c7152ULL, 26138, 101292, 91329, 0, 0, 0, 0, 0, 0xdba1b202fa6e5c07ULL}},
    {"gnp96_s1",
     {true, RunStatus::kOk, 197108, 105242, 1, 95, 0x9af671b149516dd4ULL, 14590, 34667, 9572, 0, 0, 0, 0, 0, 0x2be6ee0d4d2a3bc9ULL}},
    {"gnp96_s2",
     {true, RunStatus::kOk, 157764, 83954, 1, 95, 0x9ed9928b8cbb95aULL, 16042, 37959, 14056, 0, 0, 0, 0, 0, 0x34a437ee86e01c92ULL}},
    {"gnp96_s3",
     {true, RunStatus::kOk, 157764, 84434, 1, 95, 0x95f195bacdc3932eULL, 14784, 33943, 10451, 0, 0, 0, 0, 0, 0x7b4adf80df205833ULL}},
    {"gnp96_s4",
     {true, RunStatus::kOk, 157764, 84530, 1, 95, 0x7fcb0ce1c0f3c9e8ULL, 15762, 37767, 12770, 0, 0, 0, 0, 0, 0xfc26a11dc594432fULL}},
    // clang-format on
};

class BoundedFlood : public ::testing::TestWithParam<BoundedCell> {};

TEST_P(BoundedFlood, MatchesItsUnboundedTwinWithFewerTransmissions) {
  const BoundedCell& b = GetParam();
  const Cell& twin = cell_named(b.twin);
  const Golden got = run_cell(twin, SetupTuning{}.flood_relay_mult);
  EXPECT_EQ(row(got), row(b.golden)) << b.twin;

  // Epoch lengths do not change and attempt 0 still succeeds, so the run,
  // its outcome and the structure it built are the twin's.
  const Golden& u = twin.golden;
  EXPECT_EQ(std::tie(got.ok, got.status, got.slots, got.work_slots,
                     got.attempts, got.leader, got.structure),
            std::tie(u.ok, u.status, u.slots, u.work_slots, u.attempts,
                     u.leader, u.structure))
      << b.twin;
  EXPECT_LT(got.transmissions, u.transmissions) << b.twin;
}

INSTANTIATE_TEST_SUITE_P(Cells, BoundedFlood, ::testing::ValuesIn(kBounded),
                         [](const ::testing::TestParamInfo<BoundedCell>& p) {
                           return std::string(p.param.twin);
                         });

TEST(SetupGolden, TheRelayBudgetLeavesTheMultiAttemptCellsAlone) {
  // Attempt 0 of these cells never floods (a campaign collision, a crash),
  // and retries relay for the whole epoch, so the budget changes nothing.
  for (const char* name : {"path6_random_ids", "grid6x6_crash_churn"}) {
    const Cell& c = cell_named(name);
    EXPECT_EQ(row(run_cell(c, SetupTuning{}.flood_relay_mult)),
              row(c.golden))
        << name;
  }
}

TEST(SetupGolden, RandomIdCellRetriesAndCrashCellSpansAnEpochBoundary) {
  // The two special cells must exercise what they are there for.
  const Cell& ids = cell_named("path6_random_ids");
  EXPECT_GE(ids.golden.attempts, 2u);
  EXPECT_TRUE(ids.golden.ok);

  // Rebuild the setup network's fault schedule (run_setup draws it from
  // the master stream after the n station splits) and find a node that is
  // down on both sides of an epoch boundary of the first attempt. The
  // crashed station-slots summed over the whole run must match the pinned
  // count, which proves this is the schedule the run used.
  const Cell& crash = cell_named("grid6x6_crash_churn");
  Rng rng(crash.seed);
  const Graph g = gen::from_spec(crash.spec, rng);
  Rng master(rng.next());
  for (NodeId v = 0; v < g.num_nodes(); ++v) master.split(v);
  FaultSchedule faults(g, crash_churn(),
                       master.split(rng_tags::kFaultStream).next());
  const SetupTuning tuning = tuning_for(crash);
  const SetupSchedule s = setup_schedule(
      g.num_nodes(), decay_length(g.max_degree()), tuning, 0);
  const SlotTime bounds[] = {s.le, s.le + s.bv, s.le + s.bv + s.dfs1,
                             s.le + s.bv + s.dfs1 + s.dfs2,
                             s.attempt_length() - s.gl};
  bool spans = false;
  std::uint64_t crashed_slots = 0;
  std::vector<std::uint8_t> down_before(g.num_nodes(), 0);
  for (SlotTime t = 0; t < crash.golden.slots; ++t) {
    faults.begin_slot(t);
    crashed_slots += faults.num_crashed();
    for (const SlotTime b : bounds) {
      if (t + 1 == b)
        for (NodeId v = 0; v < g.num_nodes(); ++v)
          down_before[v] = !faults.node_alive(v);
      if (t == b)
        for (NodeId v = 0; v < g.num_nodes(); ++v)
          spans = spans || (down_before[v] && !faults.node_alive(v));
    }
  }
  EXPECT_TRUE(spans);
  EXPECT_EQ(crashed_slots, crash.golden.fault_crashed_slots);
  EXPECT_GE(crash.golden.fault_crashed_slots, 1u);
}

}  // namespace
}  // namespace radiomc
