// Golden pins for what the observers see. Every run driver hands its
// observers (telemetry hub, trace sink, profiler, slot hook) and its fault
// schedule to the engine; this suite pins, per driver, the bytes each
// observer ends up with:
//
//  * the `radiomc.telemetry/v1` document (`Telemetry::to_json()`), which
//    carries the fault counters and the "faults" span of a faulted run;
//  * the JSONL trace stream, where the driver takes a trace (for serve,
//    the health monitor's stream: its flight recorder is the trace sink);
//  * every slot the slot hook saw;
//  * the profiler's counters and span tree (names and activation counts;
//    never a time);
//  * apart, in the `polls` column: every engine poll count and wake count
//    the observers saw (the `<protocol>.polls` profiler counters, the
//    health windows' "polls" and "wakes"), summed. These measure the
//    engine's scheduling, not the radio, so a change that only makes
//    stations sleep more moves this column alone, and never up.
//
// The faulted cells run crash 0.02 / recover 0.5 / jam 0.15 with a stall
// watchdog tight enough to fire, so the degraded path is pinned too. A
// change to how drivers wire observers or install faults must leave every
// digest here unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "graph/generators.h"
#include "health/monitor.h"
#include "perf/profiler.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/point_to_point.h"
#include "protocols/ranking.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "service/service.h"
#include "support/rng.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/telemetry.h"

#include "golden_hash.h"

namespace radiomc {
namespace {

struct Digest {
  RunStatus status;
  SlotTime slots;
  std::uint64_t telemetry;  ///< Telemetry::to_json()
  std::uint64_t stream;     ///< trace (or health) stream bytes; 0 = none
  std::uint64_t hook;       ///< slots seen by the slot hook; 0 = none
  std::uint64_t profiler;   ///< counters + span tree shape; 0 = none
  std::uint64_t polls;      ///< engine polls seen by any observer
  std::uint64_t wakes;      ///< engine wake events seen by any observer
};

/// The digest as a table row, so a mismatch prints the whole cell.
std::string row(const Digest& d) {
  std::ostringstream o;
  o << "{RunStatus::"
    << (d.status == RunStatus::kOk         ? "kOk"
        : d.status == RunStatus::kDegraded ? "kDegraded"
                                           : "kFailed")
    << ", " << d.slots << ", 0x" << std::hex << d.telemetry << "ULL, 0x"
    << d.stream << "ULL, 0x" << d.hook << "ULL, 0x" << d.profiler << "ULL, "
    << std::dec << d.polls << ", " << d.wakes << "}";
  return o.str();
}

/// Scheduling counts pulled out of the observers' bytes.
struct Sched {
  std::uint64_t polls = 0;
  std::uint64_t wakes = 0;
};

/// Hashes a JSONL stream line by line with its `"polls":k` and
/// `"wakes":w` members cut out and summed into `sched`.
class StreamDigest final : public std::streambuf {
 public:
  explicit StreamDigest(Sched& sched) : sched_(sched) {}
  std::uint64_t value() const noexcept { return fnv_.value(); }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()))
      return traits_type::not_eof(c);
    line_ += traits_type::to_char_type(c);
    if (line_.back() == '\n') flush_line();
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  void cut(std::string_view key, std::uint64_t& sum) {
    const std::size_t at = line_.find(key);
    if (at == std::string::npos) return;
    std::size_t end = at + key.size();
    std::uint64_t v = 0;
    for (; end < line_.size() && line_[end] >= '0' && line_[end] <= '9'; ++end)
      v = 10 * v + static_cast<std::uint64_t>(line_[end] - '0');
    sum += v;
    line_.erase(at, end - at);
  }
  void flush_line() {
    cut(",\"polls\":", sched_.polls);
    cut(",\"wakes\":", sched_.wakes);
    fnv_.bytes(line_);
    line_.clear();
  }

  Sched& sched_;
  std::string line_;
  Fnv fnv_;
};

/// Hashes every slot the engine reports done.
class HookDigest final : public SlotHook {
 public:
  void on_slot_done(SlotTime t) override { fnv_.word(t); }
  std::uint64_t value() const noexcept { return fnv_.value(); }

 private:
  Fnv fnv_;
};

void hash_span(const perf::SpanNode& s, Fnv& h) {
  h.bytes(s.name);
  h.word(s.count);
  h.word(s.children.size());
  for (const auto& c : s.children) hash_span(*c, h);
}

std::uint64_t profiler_digest(const perf::Profiler& p, Sched& sched) {
  Fnv h;
  for (const auto& [name, value] : p.counters()) {
    if (std::string_view(name).ends_with(".polls")) {
      sched.polls += value;
      continue;
    }
    h.bytes(name);
    h.word(value);
  }
  hash_span(p.root(), h);
  return h.value();
}

/// Hashes the telemetry document without the setup spans' per-epoch
/// "transmissions" attrs. Their sum is the run's engine.transmissions,
/// which the document still carries (setup_cell checks the sum), and how
/// they split across epochs is in the trace stream; cutting them keeps a
/// row whose radio did not move byte-identical to before they existed.
std::uint64_t telemetry_digest(const TelemetryHub& hub) {
  constexpr std::string_view kKey = ",\"transmissions\":";
  std::string doc = hub.to_json();
  for (std::size_t at = doc.find(kKey); at != std::string::npos;
       at = doc.find(kKey, at)) {
    std::size_t end = at + kKey.size();
    while (end < doc.size() && doc[end] >= '0' && doc[end] <= '9') ++end;
    doc.erase(at, end - at);
  }
  Fnv h;
  h.bytes(doc);
  return h.value();
}

FaultPlan churn_and_jam() {
  FaultPlan p;
  p.crash_rate = 0.02;
  p.recover_rate = 0.5;
  p.jam_prob = 0.15;
  p.epoch_slots = 128;
  return p;
}

/// Everything a cell attaches, plus the digest of what it saw.
struct Rig {
  TelemetryHub hub;
  Sched sched;
  StreamDigest buf{sched};
  std::ostream out{&buf};
  HookDigest hook;
  perf::Profiler prof;

  Digest digest(RunStatus status, SlotTime slots, bool stream) {
    const std::uint64_t profiler = profiler_digest(prof, sched);
    return {status,       slots,    telemetry_digest(hub),
            stream ? buf.value() : 0, hook.value(), profiler,
            sched.polls,  sched.wakes};
  }
};

const Graph& grid6() {
  static const Graph g = gen::grid(6, 6);
  return g;
}

Digest setup_cell(Rig& r, bool faulted) {
  SetupOutcome out;
  {
    telemetry::JsonlTraceSink trace(r.out);
    trace.set_protocol("setup");
    SetupTuning t;
    t.telemetry = &r.hub;
    t.trace = &trace;
    t.profiler = &r.prof;
    t.slot_hook = &r.hook;
    if (faulted) {
      t.faults.crash_rate = 0.02;
      t.faults.recover_rate = 0.5;
    }
    out = run_setup(gen::grid(4, 4), 11, t, 8);
  }
  std::int64_t epoch_tx = 0;
  for (const telemetry::PhaseSpan& s : r.hub.timeline.spans())
    for (const auto& [key, value] : s.attrs)
      epoch_tx += key == "transmissions" ? value : 0;
  EXPECT_EQ(static_cast<std::uint64_t>(epoch_tx),
            r.hub.metrics
                .counter("engine.transmissions", {{"protocol", "setup"}})
                .value());
  return r.digest(out.status, out.slots, true);
}

Digest collection_cell(Rig& r, bool faulted) {
  const Graph& g = grid6();
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Rng rng(5);
  std::vector<Message> init;
  for (std::uint32_t i = 0; i < 24; ++i) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = 1 + static_cast<NodeId>(rng.next_below(g.num_nodes() - 1));
    m.seq = i;
    init.push_back(m);
  }
  CollectionOutcome out;
  {
    telemetry::JsonlTraceSink trace(r.out);
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    trace.set_protocol("collection");
    trace.set_slot_structure(cfg.slots);
    trace.set_levels(tree.level);
    cfg.telemetry = &r.hub;
    cfg.trace = &trace;
    cfg.profiler = &r.prof;
    cfg.slot_hook = &r.hook;
    if (faulted) {
      cfg.faults = churn_and_jam();
      cfg.stall_slots = 80;
    }
    out = run_collection(g, tree, init, cfg, 6);
  }
  return r.digest(out.status, out.slots, true);
}

Digest p2p_cell(Rig& r, bool faulted) {
  const Graph& g = grid6();
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  Rng rng(7);
  std::vector<P2pRequest> reqs;
  for (std::uint64_t i = 0; i < 16; ++i)
    reqs.push_back({static_cast<NodeId>(rng.next_below(g.num_nodes())),
                    static_cast<NodeId>(rng.next_below(g.num_nodes())), i});
  P2pOutcome out;
  {
    telemetry::JsonlTraceSink trace(r.out);
    P2pConfig cfg = P2pConfig::for_graph(g);
    trace.set_protocol("p2p");
    trace.set_slot_structure(cfg.slots);
    cfg.telemetry = &r.hub;
    cfg.trace = &trace;
    cfg.profiler = &r.prof;
    cfg.slot_hook = &r.hook;
    if (faulted) {
      cfg.faults = churn_and_jam();
      cfg.stall_slots = 80;
    }
    out = run_point_to_point(g, prep, reqs, cfg, 8);
  }
  return r.digest(out.status, out.slots, true);
}

Digest broadcast_cell(Rig& r, bool faulted) {
  const Graph& g = grid6();
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Rng rng(9);
  std::vector<NodeId> sources;
  for (int i = 0; i < 8; ++i)
    sources.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  KBroadcastOutcome out;
  {
    telemetry::JsonlTraceSink trace(r.out);
    trace.set_protocol("broadcast");
    trace.set_levels(tree.level);
    BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
    cfg.telemetry = &r.hub;
    cfg.trace = &trace;
    cfg.profiler = &r.prof;
    cfg.slot_hook = &r.hook;
    if (faulted) {
      cfg.faults = churn_and_jam();
      cfg.stall_slots = 1200;
    }
    out = run_k_broadcast(g, tree, sources, cfg, 10);
  }
  return r.digest(out.status, out.slots, true);
}

Digest service_cell(Rig& r, bool) {
  const Graph& g = grid6();
  const BfsTree tree = oracle_bfs_tree(g, 0);
  service::ServeConfig cfg;
  cfg.arrival = service::ArrivalSpec::parse("bernoulli:0.1");
  cfg.phases = 400;
  cfg.warmup_phases = 50;
  cfg.faults = churn_and_jam();
  cfg.telemetry = &r.hub;
  cfg.profiler = &r.prof;
  cfg.slot_hook = &r.hook;
  health::HealthConfig hcfg;
  hcfg.window_phases = 32;
  hcfg.offered_rate = cfg.arrival.mean_rate();
  hcfg.depth = tree.depth;
  hcfg.warmup_phases = cfg.warmup_phases;
  service::ServeOutcome out;
  {
    health::Monitor mon(tree.level, hcfg, r.out);
    cfg.health = &mon;
    out = service::run_service(g, tree, cfg, 12);
  }
  return r.digest(out.status, out.slots, true);
}

Digest ranking_cell(Rig& r, bool) {
  const Graph& g = grid6();
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  Rng rng(13);
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (auto& id : ids) id = rng.next();
  Observers obs;
  obs.telemetry = &r.hub;
  const RankingOutcome out = run_ranking(g, prep, ids, 14, 200'000'000, obs,
                                         churn_and_jam(), 2000);
  Digest d = r.digest(out.status, out.total_slots(), false);
  d.hook = d.profiler = 0;  // the cell attaches the hub only
  return d;
}

struct Cell {
  const char* name;
  Digest (*run)(Rig& r, bool faulted);
  bool faulted;
  Digest golden;
};

/// Prints a cell by name (gtest would otherwise print its raw bytes).
void PrintTo(const Cell& c, std::ostream* os) { *os << c.name; }

const Cell kCells[] = {
    // clang-format off
    {"setup", setup_cell, false,
     {RunStatus::kOk, 15940, 0xc53ec2e72778009dULL, 0x235a6ceb7ab0137aULL, 0xecaeeca620bdfc9fULL, 0x60024651fafd2ed6ULL, 1660, 0}},
    {"setup_faulted", setup_cell, true,
     {RunStatus::kOk, 111308, 0x8e852288170a20ceULL, 0x4ea437d4a8b487eULL, 0x778d589704345ddaULL, 0x20fb6fe08d25b783ULL, 14079, 0}},
    {"collection", collection_cell, false,
     {RunStatus::kOk, 561, 0x49517868a449785aULL, 0x692227741a642058ULL, 0x4e2f5f9fa47343f8ULL, 0x8d712a74c1e20475ULL, 363, 0}},
    {"collection_faulted", collection_cell, true,
     {RunStatus::kDegraded, 233, 0xf93c764f91afdda3ULL, 0x8f3dbf97a0a311e2ULL, 0x2e441b32cc142fe4ULL, 0x902c413f2989328fULL, 400, 0}},
    {"p2p", p2p_cell, false,
     {RunStatus::kOk, 283, 0x5b132efab8dbcb7dULL, 0x298f1dd12d4c13d1ULL, 0xf3ebbf8a8c3efc61ULL, 0x6243142cd11a974cULL, 276, 0}},
    {"p2p_faulted", p2p_cell, true,
     {RunStatus::kDegraded, 425, 0xc9278d2897a0e370ULL, 0xf084befc0ef40d8cULL, 0xf43a7adaad823ae8ULL, 0x2c06aafac3ea095aULL, 526, 0}},
    {"broadcast", broadcast_cell, false,
     {RunStatus::kOk, 2311, 0x80d61a7a9d141acfULL, 0x57c9a6497d9f06f5ULL, 0xa2775690882dc2ddULL, 0xefaff40dd11ab568ULL, 9310, 0}},
    {"broadcast_faulted", broadcast_cell, true,
     {RunStatus::kDegraded, 1200, 0x223d3b0f129e7271ULL, 0xf2a2f5e2395ef24fULL, 0x37188821533b29a9ULL, 0xd3bfc835ccf75163ULL, 2645, 0}},
    {"service_faulted", service_cell, true,
     {RunStatus::kOk, 10800, 0x8534be3a0f0eb65cULL, 0x16e8c1aca47c77b3ULL, 0xe24f85d3a9ff8727ULL, 0x7828257e6dc6174cULL, 1078, 452}},
    {"ranking_faulted", ranking_cell, true,
     {RunStatus::kOk, 4998, 0xbb92f50e64500283ULL, 0x0ULL, 0x0ULL, 0x0ULL, 0, 0}},
    // clang-format on
};

class ObserverGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(ObserverGolden, EveryObserverSeesThePinnedBytes) {
  const Cell& c = GetParam();
  Rig r;
  EXPECT_EQ(row(c.run(r, c.faulted)), row(c.golden)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cells, ObserverGolden, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& p) {
                           return std::string(p.param.name);
                         });

TEST(ObserverGolden, FaultedCellsCoverTheFaultSpanAndTheDegradedPath) {
  // The faulted collection, p2p and broadcast cells exist to pin the
  // "faults" span and the watchdog's degraded outcome.
  for (const auto run : {collection_cell, p2p_cell, broadcast_cell}) {
    Rig r;
    EXPECT_EQ(run(r, true).status, RunStatus::kDegraded);
    std::size_t fault_spans = 0;
    for (const telemetry::PhaseSpan& s : r.hub.timeline.spans())
      fault_spans += s.protocol == "faults" ? 1 : 0;
    EXPECT_EQ(fault_spans, 1u);
  }
}

}  // namespace
}  // namespace radiomc
