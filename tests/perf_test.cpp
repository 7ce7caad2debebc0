// Tests for the performance-observability subsystem (src/perf/):
//
//  * Profiler span-tree semantics: nesting, same-name-same-parent
//    aggregation, counters, balanced/unbalanced depth accounting;
//  * RunSpan: one record feeding both the timeline and the profiler under
//    one name, nothing with no observers, no timeline span when left open;
//  * the radiomc.perf/v1 report schema, pinned by parsing the emitted
//    document back through the offline JSON parser;
//  * the SnapshotStreamer JSONL stream: golden layout without a profiler
//    (a pure function of its inputs), the perf member with one, the
//    idempotent end record, and the shared CLI flag-validation contract;
//  * the regression differ: synthetic slowdowns must be flagged in both
//    the perf and bench schemas, matched rows must pass, and incomparable
//    documents must be rejected — the radiomc_perf CI gate in miniature;
//  * determinism: a collection run instrumented with a profiler and a
//    snapshot hook produces the same simulated outcome as a bare run
//    (measurement must never steer the model), and so do the flood and
//    the ethernet bus, whose traces and snapshots show their own run;
//  * idle skip: collection, p2p, ranking, k-broadcast and TDMA reach the
//    same outcome with a no-op slot hook (every slot stepped) as bare
//    (idle spans skipped), fault-free, with a short watchdog and faulted.

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perf/profiler.h"
#include "perf/regression.h"
#include "perf/report.h"
#include "perf/snapshot.h"
#include "baselines/tdma_collection.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/ethernet_emulation.h"
#include "protocols/point_to_point.h"
#include "protocols/ranking.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "telemetry/json_value.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace {

using radiomc::perf::DiffOptions;
using radiomc::perf::DiffReport;
using radiomc::perf::PerfSpan;
using radiomc::perf::Profiler;
using radiomc::perf::RunSpan;
using radiomc::perf::SnapshotStreamer;
using radiomc::perf::SpanNode;
using radiomc::telemetry::JsonValue;

// ---------------------------------------------------------------------------
// Profiler span tree.
// ---------------------------------------------------------------------------

TEST(Profiler, NestedSpansBuildATree) {
  Profiler p;
  {
    PerfSpan outer(&p, "outer");
    { PerfSpan inner(&p, "inner"); }
    { PerfSpan inner(&p, "inner"); }
    { PerfSpan other(&p, "other"); }
  }
  EXPECT_EQ(p.open_depth(), 0u);
  const SpanNode& root = p.root();
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.size(), 2u);  // "inner" aggregated, then "other"
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_EQ(outer.children[0]->count, 2u);
  EXPECT_EQ(outer.children[1]->name, "other");
  EXPECT_EQ(outer.children[1]->count, 1u);
}

TEST(Profiler, SameNameUnderDifferentParentsStaysSeparate) {
  Profiler p;
  {
    PerfSpan a(&p, "a");
    PerfSpan step(&p, "step");
  }
  {
    PerfSpan b(&p, "b");
    PerfSpan step(&p, "step");
  }
  const SpanNode& root = p.root();
  ASSERT_EQ(root.children.size(), 2u);
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  ASSERT_EQ(root.children[1]->children.size(), 1u);
  EXPECT_EQ(root.children[0]->children[0]->count, 1u);
  EXPECT_EQ(root.children[1]->children[0]->count, 1u);
}

TEST(Profiler, AggregationTracksCountTotalMinMax) {
  Profiler p;
  for (int i = 0; i < 5; ++i) PerfSpan s(&p, "loop");
  const SpanNode& loop = *p.root().children[0];
  EXPECT_EQ(loop.count, 5u);
  EXPECT_GE(loop.max_ns, loop.min_ns);
  EXPECT_GE(loop.total_ns, loop.max_ns);
  EXPECT_LE(loop.min_ns * 5, loop.total_ns);
}

TEST(Profiler, CountersAccumulateAndUnbalancedEndIsIgnored) {
  Profiler p;
  p.count("slots", 10);
  p.count("slots", 5);
  p.count("attempts");
  p.end();  // no open span: must not underflow past the root
  EXPECT_EQ(p.open_depth(), 0u);
  ASSERT_EQ(p.counters().size(), 2u);
  EXPECT_EQ(p.counters().at("slots"), 15u);
  EXPECT_EQ(p.counters().at("attempts"), 1u);
}

TEST(Profiler, NullProfilerSpanIsANoOp) {
  // Must not crash; this is the "profiling off" path every driver takes.
  PerfSpan s(nullptr, "never");
}

TEST(Profiler, OpenDepthCountsUnclosedSpans) {
  Profiler p;
  p.begin("a");
  p.begin("b");
  EXPECT_EQ(p.open_depth(), 2u);
  p.end();
  EXPECT_EQ(p.open_depth(), 1u);
}

// ---------------------------------------------------------------------------
// RunSpan: one span record for both observers.
// ---------------------------------------------------------------------------

TEST(RunSpan, FeedsTimelineAndProfilerUnderOneName) {
  radiomc::TelemetryHub hub;
  Profiler p;
  radiomc::Observers obs;
  obs.telemetry = &hub;
  obs.profiler = &p;
  {
    RunSpan span(obs, "collection", "drain", 7);
    EXPECT_EQ(p.open_depth(), 1u);
    span.close(19, {{"k", 4}, {"completed", 1}});
    EXPECT_EQ(p.open_depth(), 0u);
    span.close(25, {{"k", 5}});  // a second close is a no-op
  }
  EXPECT_EQ(p.open_depth(), 0u);

  const auto& spans = hub.timeline.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].protocol, "collection");
  EXPECT_EQ(spans[0].name, "drain");
  EXPECT_EQ(spans[0].begin, 7u);
  EXPECT_EQ(spans[0].end, 19u);
  const std::vector<std::pair<std::string, std::int64_t>> attrs = {
      {"k", 4}, {"completed", 1}};
  EXPECT_EQ(spans[0].attrs, attrs);

  ASSERT_EQ(p.root().children.size(), 1u);
  const SpanNode& node = *p.root().children[0];
  EXPECT_EQ(node.name, "collection.drain");
  EXPECT_EQ(node.count, 1u);
  EXPECT_TRUE(node.children.empty());
}

TEST(RunSpan, NoObserversRecordsNothing) {
  RunSpan span(radiomc::Observers{}, "setup", "leader_election", 0);
  span.close(10, {{"attempt", 0}});
}

TEST(RunSpan, LeftOpenClosesTheProfilerAndRecordsNoTimelineSpan) {
  radiomc::TelemetryHub hub;
  Profiler p;
  radiomc::Observers obs;
  obs.telemetry = &hub;
  obs.profiler = &p;
  try {
    RunSpan span(obs, "ranking", "deliver", 3);
    throw std::runtime_error("driver failed mid-run");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(p.open_depth(), 0u);
  EXPECT_TRUE(hub.timeline.spans().empty());
  ASSERT_EQ(p.root().children.size(), 1u);
  EXPECT_EQ(p.root().children[0]->name, "ranking.deliver");
  EXPECT_EQ(p.root().children[0]->count, 1u);
}

// ---------------------------------------------------------------------------
// radiomc.perf/v1 report schema.
// ---------------------------------------------------------------------------

TEST(PerfReport, EmittedDocumentMatchesSchema) {
  Profiler p;
  {
    PerfSpan run(&p, "setup.attempt");
    PerfSpan epoch(&p, "setup.leader_election");
  }
  p.count("setup.slots", 128);

  radiomc::perf::RunInfo run;
  run.tool = "perf_test";
  run.command = "schema-check";
  run.jobs = 3;
  run.slots = 128;

  const auto doc = radiomc::telemetry::parse_json(to_perf_json(p, run));
  ASSERT_TRUE(doc.ok) << doc.error;
  const JsonValue& v = doc.value;

  EXPECT_EQ(v.at("schema").as_string(), radiomc::perf::kPerfSchemaVersion);
  EXPECT_EQ(v.at("run").at("tool").as_string(), "perf_test");
  EXPECT_EQ(v.at("run").at("command").as_string(), "schema-check");
  EXPECT_EQ(v.at("run").at("jobs").as_int(), 3);
  EXPECT_EQ(v.at("slots").as_int(), 128);
  EXPECT_TRUE(v.at("wall_ms").is_number());
  EXPECT_TRUE(v.at("cpu_ms").is_number());
  EXPECT_TRUE(v.at("slots_per_sec").is_number());
  EXPECT_TRUE(v.at("peak_rss_bytes").is_number());
  EXPECT_TRUE(v.at("alloc_in_use_bytes").is_number());
  EXPECT_EQ(v.at("open_spans").as_int(), 0);
  EXPECT_EQ(v.at("counters").at("setup.slots").as_int(), 128);

  ASSERT_TRUE(v.at("spans").is_array());
  ASSERT_EQ(v.at("spans").items().size(), 1u);
  const JsonValue& attempt = v.at("spans").items()[0];
  EXPECT_EQ(attempt.at("name").as_string(), "setup.attempt");
  EXPECT_EQ(attempt.at("count").as_int(), 1);
  EXPECT_TRUE(attempt.at("total_ns").is_number());
  EXPECT_TRUE(attempt.at("min_ns").is_number());
  EXPECT_TRUE(attempt.at("max_ns").is_number());
  ASSERT_EQ(attempt.at("children").items().size(), 1u);
  EXPECT_EQ(attempt.at("children").items()[0].at("name").as_string(),
            "setup.leader_election");
}

TEST(PerfReport, UnbalancedRunIsVisibleInOpenSpans) {
  Profiler p;
  p.begin("leaked");
  radiomc::perf::RunInfo run;
  run.tool = "perf_test";
  const auto doc = radiomc::telemetry::parse_json(to_perf_json(p, run));
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.at("open_spans").as_int(), 1);
}

// ---------------------------------------------------------------------------
// Snapshot stream.
// ---------------------------------------------------------------------------

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

TEST(SnapshotStream, GoldenLayoutWithoutProfiler) {
  // With no registry and no profiler every byte of the stream is a pure
  // function of the pulse sequence — pin it exactly.
  std::ostringstream out;
  SnapshotStreamer snap(out, /*every_slots=*/10, /*metrics=*/nullptr);
  for (radiomc::SlotTime t = 1; t <= 25; ++t) snap.on_slot_done(t);
  snap.finish();

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "{\"ev\":\"schema\",\"v\":\"radiomc.snap/v1\",\"every\":10}");
  EXPECT_EQ(lines[1], "{\"ev\":\"snap\",\"slot\":10,\"metrics\":null}");
  EXPECT_EQ(lines[2], "{\"ev\":\"snap\",\"slot\":20,\"metrics\":null}");
  EXPECT_EQ(lines[3],
            "{\"ev\":\"end\",\"slot\":25,\"snapshots\":2,\"clean\":true}");
  EXPECT_EQ(snap.snapshots_written(), 2u);
  EXPECT_EQ(snap.dropped_snapshots(), 0u);
}

TEST(SnapshotStream, MetricsAreEmbeddedAndStreamsAreDeterministic) {
  const auto run_once = [] {
    radiomc::telemetry::MetricsRegistry reg;
    reg.counter("collection.delivered").inc(7);
    std::ostringstream out;
    SnapshotStreamer snap(out, 5, &reg);
    for (radiomc::SlotTime t = 1; t <= 12; ++t) snap.on_slot_done(t);
    snap.finish();
    return out.str();
  };
  const std::string a = run_once();
  EXPECT_EQ(a, run_once());  // byte-identical across runs
  const std::vector<std::string> lines = Lines(a);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(lines[1].find("collection.delivered"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"perf\""), std::string::npos);
}

TEST(SnapshotStream, ProfilerAddsThePerfMember) {
  Profiler prof;
  std::ostringstream out;
  SnapshotStreamer snap(out, 2, nullptr, &prof);
  for (radiomc::SlotTime t = 1; t <= 4; ++t) snap.on_slot_done(t);
  snap.finish();
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find("\"perf\":{\"wall_ms\":"), std::string::npos);
  EXPECT_NE(lines[1].find("interval_slots_per_sec"), std::string::npos);
}

TEST(SnapshotStream, FinishIsIdempotentAndStopsSnapshots) {
  std::ostringstream out;
  SnapshotStreamer snap(out, 2, nullptr);
  snap.on_slot_done(2);
  snap.finish();
  snap.on_slot_done(4);  // after finish: ignored
  snap.finish();         // second finish: no second end record
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2],
            "{\"ev\":\"end\",\"slot\":2,\"snapshots\":1,\"clean\":true}");
}

TEST(SnapshotStream, DroppedCadencePointsDirtyTheFooter) {
  // A stream that goes bad mid-run must not masquerade as complete: the
  // missed cadence points are counted and the footer reports clean:false.
  std::ostringstream out;
  SnapshotStreamer snap(out, 2, nullptr);
  snap.on_slot_done(2);
  out.setstate(std::ios::badbit);  // stream goes bad
  snap.on_slot_done(4);            // dropped
  snap.on_slot_done(6);            // dropped
  out.clear();                     // recovers in time for the footer
  snap.on_slot_done(8);
  snap.finish();
  EXPECT_EQ(snap.snapshots_written(), 2u);
  EXPECT_EQ(snap.dropped_snapshots(), 2u);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines.back(),
            "{\"ev\":\"end\",\"slot\":8,\"snapshots\":2,\"clean\":false,"
            "\"dropped\":2}");
}

TEST(SnapshotStream, UnwritablePathReportsNotOk) {
  SnapshotStreamer snap("/nonexistent-dir/snap.jsonl", 10, nullptr);
  EXPECT_FALSE(snap.ok());
}

TEST(SnapshotFlags, CadenceWithoutDestinationIsRejected) {
  try {
    SnapshotStreamer::validate_flags(/*has_out=*/false, /*has_every=*/true,
                                     100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--snapshot-every requires --snapshot-out (nowhere to "
                 "stream)");
  }
}

TEST(SnapshotFlags, DestinationWithoutCadenceIsRejected) {
  try {
    SnapshotStreamer::validate_flags(/*has_out=*/true, /*has_every=*/false,
                                     0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--snapshot-out requires --snapshot-every (no default "
                 "cadence)");
  }
}

TEST(SnapshotFlags, ZeroCadenceIsRejectedAndValidComboPasses) {
  EXPECT_THROW(SnapshotStreamer::validate_flags(true, true, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(SnapshotStreamer::validate_flags(true, true, 50));
  EXPECT_NO_THROW(SnapshotStreamer::validate_flags(false, false, 0));
}

// ---------------------------------------------------------------------------
// Regression differ (the radiomc_perf gate in miniature).
// ---------------------------------------------------------------------------

JsonValue Parse(const std::string& text) {
  const auto r = radiomc::telemetry::parse_json(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value;
}

TEST(JsonParse, NonFiniteNumberIsAnErrorAndUintReadIsChecked) {
  const auto inf = radiomc::telemetry::parse_json("{\"windows\":1e999}");
  EXPECT_FALSE(inf.ok);
  EXPECT_EQ(inf.error, "number out of double range at byte 11");

  const JsonValue v = Parse(
      "{\"ok\":4294967295,\"neg\":-1,\"frac\":1.5,\"big\":4294967296,"
      "\"huge\":1e20,\"str\":\"7\",\"long\":100000000000000000}");
  EXPECT_EQ(v.at("ok").as_uint(UINT32_MAX), 4294967295u);
  EXPECT_EQ(v.at("neg").as_uint(), std::nullopt);
  EXPECT_EQ(v.at("frac").as_uint(), std::nullopt);
  EXPECT_EQ(v.at("big").as_uint(UINT32_MAX), std::nullopt);
  EXPECT_EQ(v.at("big").as_uint(), 4294967296u);
  EXPECT_EQ(v.at("huge").as_uint(), std::nullopt);
  EXPECT_EQ(v.at("str").as_uint(), std::nullopt);
  EXPECT_EQ(v.at("long").as_uint(), 100000000000000000u);  // via strtod
}

std::string PerfDoc(double slots_per_sec, double span_ns) {
  std::ostringstream s;
  s << "{\"schema\":\"radiomc.perf/v1\",\"wall_ms\":100.0,"
    << "\"slots_per_sec\":" << slots_per_sec << ","
    << "\"spans\":[{\"name\":\"drain\",\"total_ns\":" << span_ns
    << ",\"children\":[]}]}";
  return s.str();
}

TEST(RegressionDiff, SyntheticPerfSlowdownIsFlagged) {
  const JsonValue base = Parse(PerfDoc(1000.0, 1e6));
  const JsonValue slow = Parse(PerfDoc(100.0, 5e7));  // 10x and 50x slower
  const DiffReport r =
      radiomc::perf::diff_reports(base, slow, DiffOptions{2.0});
  ASSERT_TRUE(r.comparable) << r.error;
  EXPECT_TRUE(r.any_regression());
  std::size_t regressed = 0;
  for (const auto& e : r.entries) regressed += e.regressed ? 1 : 0;
  // slots_per_sec and span_speed[drain] regress; wall_ms is unchanged.
  EXPECT_EQ(regressed, 2u);
}

TEST(RegressionDiff, IdenticalPerfReportsPass) {
  const JsonValue doc = Parse(PerfDoc(1000.0, 1e6));
  const DiffReport r =
      radiomc::perf::diff_reports(doc, doc, DiffOptions{2.0});
  ASSERT_TRUE(r.comparable);
  EXPECT_FALSE(r.any_regression());
  EXPECT_GE(r.entries.size(), 3u);  // slots_per_sec, wall, span
}

std::string BenchDoc(double grid_rate, double rng_rate,
                     bool include_rng_row = true) {
  std::ostringstream s;
  s << "{\"schema\":\"radiomc.bench/v1\",\"bench\":\"ENGINE\",\"claim\":\"c\","
    << "\"rows\":[{\"case\":\"engine_slots\",\"topology\":\"grid\","
    << "\"workload\":\"idle\",\"n\":256,\"slots_per_sec\":" << grid_rate
    << "}";
  if (include_rng_row)
    s << ",{\"case\":\"rng_next\",\"ops_per_sec\":" << rng_rate << "}";
  s << "],\"pass\":true}";
  return s.str();
}

TEST(RegressionDiff, SyntheticBenchSlowdownIsFlaggedByRowKey) {
  const JsonValue base = Parse(BenchDoc(300000.0, 3e8));
  const JsonValue slow = Parse(BenchDoc(300000.0, 1e7));  // only rng slowed
  const DiffReport r =
      radiomc::perf::diff_reports(base, slow, DiffOptions{2.0});
  ASSERT_TRUE(r.comparable) << r.error;
  ASSERT_EQ(r.entries.size(), 2u);
  std::size_t regressed = 0;
  for (const auto& e : r.entries) {
    if (e.regressed) {
      ++regressed;
      EXPECT_NE(e.metric.find("rng_next"), std::string::npos) << e.metric;
    }
  }
  EXPECT_EQ(regressed, 1u);
}

TEST(RegressionDiff, MissingBaselineRowCountsAsZeroRate) {
  const JsonValue base = Parse(BenchDoc(300000.0, 3e8));
  const JsonValue lost =
      Parse(BenchDoc(300000.0, 0.0, /*include_rng_row=*/false));
  const DiffReport r =
      radiomc::perf::diff_reports(base, lost, DiffOptions{2.0});
  ASSERT_TRUE(r.comparable);
  EXPECT_TRUE(r.any_regression());  // vanished row -> current rate 0
}

TEST(RegressionDiff, MismatchedSchemasAndBadThresholdAreRejected) {
  const JsonValue perf = Parse(PerfDoc(1.0, 1.0));
  const JsonValue bench = Parse(BenchDoc(1.0, 1.0));
  EXPECT_FALSE(
      radiomc::perf::diff_reports(perf, bench, DiffOptions{2.0}).comparable);
  EXPECT_FALSE(
      radiomc::perf::diff_reports(perf, perf, DiffOptions{0.5}).comparable);
}

// ---------------------------------------------------------------------------
// Determinism: instrumentation must not steer the model.
// ---------------------------------------------------------------------------

radiomc::CollectionOutcome RunCollection(bool instrumented,
                                         Profiler* prof,
                                         SnapshotStreamer* snap) {
  const radiomc::Graph g = radiomc::gen::grid(5, 5);
  const radiomc::BfsTree tree = radiomc::oracle_bfs_tree(g, 0);
  std::vector<radiomc::Message> init;
  for (radiomc::NodeId v = 1; v < g.num_nodes(); ++v) {
    radiomc::Message m;
    m.kind = radiomc::MsgKind::kData;
    m.origin = v;
    init.push_back(m);
  }
  radiomc::CollectionConfig cfg = radiomc::CollectionConfig::for_graph(g);
  if (instrumented) {
    cfg.profiler = prof;
    cfg.slot_hook = snap;
  }
  return run_collection(g, tree, init, cfg, /*seed=*/0xC0FFEE);
}

TEST(PerfDeterminism, ProfiledRunMatchesBareRun) {
  const radiomc::CollectionOutcome bare =
      RunCollection(false, nullptr, nullptr);

  Profiler prof;
  std::ostringstream snap_out;
  SnapshotStreamer snap(snap_out, 16, nullptr, &prof);
  const radiomc::CollectionOutcome instrumented =
      RunCollection(true, &prof, &snap);
  snap.finish();

  EXPECT_EQ(bare.completed, instrumented.completed);
  EXPECT_EQ(bare.slots, instrumented.slots);
  EXPECT_EQ(bare.phases, instrumented.phases);
  ASSERT_EQ(bare.deliveries.size(), instrumented.deliveries.size());
  for (std::size_t i = 0; i < bare.deliveries.size(); ++i) {
    EXPECT_EQ(bare.deliveries[i].slot, instrumented.deliveries[i].slot);
    EXPECT_EQ(bare.deliveries[i].msg.origin,
              instrumented.deliveries[i].msg.origin);
  }

  // The instrumented run actually measured something.
  EXPECT_GE(prof.root().children.size(), 1u);
  EXPECT_EQ(prof.counters().at("collection.slots"), instrumented.slots);
  EXPECT_GT(snap.snapshots_written(), 0u);
}

/// Every observer of one run: a trace, a snapshot stream and a profiler.
struct RunObservers {
  std::ostringstream trace_out;
  radiomc::telemetry::JsonlTraceSink trace{trace_out};
  Profiler prof;
  std::ostringstream snap_out;
  SnapshotStreamer snap{snap_out, 100, nullptr, &prof};

  radiomc::Observers observers() { return {nullptr, &trace, &prof, &snap}; }
  /// Lines of the finished trace: the schema header plus the events.
  std::size_t trace_lines() {
    trace.finish();
    const std::string t = trace_out.str();
    return static_cast<std::size_t>(std::count(t.begin(), t.end(), '\n'));
  }
};

TEST(PerfDeterminism, FloodTracesItsRunAndMatchesBareRun) {
  const radiomc::Graph g = radiomc::gen::grid(4, 4);
  const radiomc::BgiOutcome bare = radiomc::run_bgi_broadcast(g, 0, 40, 7);
  RunObservers obs;
  const radiomc::BgiOutcome seen =
      radiomc::run_bgi_broadcast(g, 0, 40, 7, {}, obs.observers());
  EXPECT_EQ(bare.slots, seen.slots);
  EXPECT_EQ(bare.informed_at, seen.informed_at);

  EXPECT_GT(obs.trace_lines(), 1u);
  EXPECT_GT(obs.snap.snapshots_written(), 0u);
  EXPECT_EQ(obs.prof.counters().at("flood.slots"), seen.slots);
  const std::uint64_t polls = obs.prof.counters().at("flood.polls");
  EXPECT_GT(polls, 0u);
  EXPECT_LT(polls, g.num_nodes() * seen.slots);  // the flood sleeps
}

TEST(PerfDeterminism, EthernetTracesItsBusAndMatchesBareRun) {
  const radiomc::Graph g = radiomc::gen::grid(4, 4);
  const radiomc::BfsTree tree = radiomc::oracle_bfs_tree(g, 0);
  const std::vector<std::uint32_t> backlog(g.num_nodes(), 1);
  const radiomc::BackoffOutcome bare =
      radiomc::run_ethernet_backoff(g, tree, backlog, 11);
  RunObservers obs;
  const radiomc::BackoffOutcome seen = radiomc::run_ethernet_backoff(
      g, tree, backlog, 11, 4096, {}, obs.observers());
  EXPECT_TRUE(seen.completed);
  EXPECT_EQ(bare.slots, seen.slots);
  EXPECT_EQ(bare.delivered_frames, seen.delivered_frames);

  EXPECT_GT(obs.trace_lines(), 1u);
  EXPECT_GT(obs.snap.snapshots_written(), 0u);
  EXPECT_EQ(obs.prof.counters().at("ethernet.slots"), seen.slots);
  const std::uint64_t polls = obs.prof.counters().at("ethernet.polls");
  EXPECT_GT(polls, 0u);
  EXPECT_LT(polls, g.num_nodes() * seen.slots);  // the bus's mux sleeps
}

// ---------------------------------------------------------------------------
// Idle skip: a slot hook turns RadioNetwork's idle-span skip off, so a
// driver run with a no-op hook steps every slot. Its outcome must equal
// the bare run's, which passes idle spans and, with stall_slots, stops at
// the watchdog's deadline even when it falls inside one.
// ---------------------------------------------------------------------------

class NoOpHook final : public radiomc::SlotHook {
 public:
  void on_slot_done(radiomc::SlotTime) override {}
};

std::vector<std::tuple<radiomc::SlotTime, radiomc::NodeId, std::uint32_t>>
DeliveryKeys(const std::vector<radiomc::AckedHop::Delivery>& ds) {
  std::vector<std::tuple<radiomc::SlotTime, radiomc::NodeId, std::uint32_t>>
      keys;
  for (const auto& d : ds) keys.emplace_back(d.slot, d.msg.origin, d.msg.seq);
  return keys;
}

enum class DriveMode { kClean, kStall, kFaulted };
using DriveParam = std::tuple<int /*udg nodes*/, int /*seed*/, DriveMode>;

class DriveSkip : public ::testing::TestWithParam<DriveParam> {};

TEST_P(DriveSkip, HookedRunMatchesBareRun) {
  using namespace radiomc;
  const auto [nodes, seed, mode] = GetParam();
  Rng rng(seed);
  const Graph g = gen::unit_disk_connected(
      nodes, gen::udg_connect_radius(nodes), rng);
  const NodeId n = g.num_nodes();
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const PreparationResult prep = run_preparation(g, tree);
  ASSERT_TRUE(prep.ok);
  FaultPlan plan;
  if (mode == DriveMode::kFaulted) {
    plan.jam_prob = 0.1;
    plan.drop_prob = 0.05;
    plan.crash_rate = 0.01;
    plan.recover_rate = 0.3;
  }
  // A short watchdog on a fault-free run fires inside idle spans.
  const SlotTime stall = mode == DriveMode::kClean   ? 0
                         : mode == DriveMode::kStall ? 150
                                                     : 500;
  NoOpHook noop;

  std::vector<Message> initial(n);
  for (NodeId v = 0; v < n; ++v) {
    initial[v].kind = MsgKind::kData;
    initial[v].origin = v;
  }
  const auto collect = [&](SlotHook* hook) {
    CollectionConfig cfg = CollectionConfig::for_graph(g);
    cfg.faults = plan;
    cfg.stall_slots = stall;
    cfg.slot_hook = hook;
    return run_collection(g, tree, initial, cfg, seed);
  };
  const CollectionOutcome cb = collect(nullptr);
  const CollectionOutcome ch = collect(&noop);
  EXPECT_EQ(cb.status, ch.status);
  EXPECT_EQ(cb.slots, ch.slots);
  EXPECT_EQ(cb.occupied_phases, ch.occupied_phases);
  EXPECT_EQ(cb.advance_phases, ch.advance_phases);
  EXPECT_EQ(DeliveryKeys(cb.deliveries), DeliveryKeys(ch.deliveries));

  std::vector<P2pRequest> requests(n);
  for (P2pRequest& r : requests) {
    r.src = static_cast<NodeId>(rng.next_below(n));
    r.dst = static_cast<NodeId>(rng.next_below(n));
  }
  const auto p2p = [&](SlotHook* hook) {
    P2pConfig cfg = P2pConfig::for_graph(g);
    cfg.faults = plan;
    cfg.stall_slots = stall;
    cfg.slot_hook = hook;
    return run_point_to_point(g, prep, requests, cfg, seed);
  };
  const P2pOutcome pb = p2p(nullptr);
  const P2pOutcome ph = p2p(&noop);
  EXPECT_EQ(pb.status, ph.status);
  EXPECT_EQ(pb.slots, ph.slots);
  EXPECT_EQ(pb.delivery_slot, ph.delivery_slot);

  std::vector<std::uint64_t> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = 1000 * (n - v) + seed;
  const auto rank = [&](SlotHook* hook) {
    Observers obs;
    obs.slot_hook = hook;
    return run_ranking(g, prep, ids, seed, 200'000'000, obs, plan, stall);
  };
  const RankingOutcome rb = rank(nullptr);
  const RankingOutcome rh = rank(&noop);
  EXPECT_EQ(rb.status, rh.status);
  EXPECT_EQ(rb.collect_slots, rh.collect_slots);
  EXPECT_EQ(rb.deliver_slots, rh.deliver_slots);
  EXPECT_EQ(rb.rank, rh.rank);

  std::vector<NodeId> sources(6);
  for (NodeId& s : sources) s = static_cast<NodeId>(rng.next_below(n));
  const auto broadcast = [&](SlotHook* hook) {
    BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
    cfg.faults = plan;
    cfg.stall_slots = stall;
    cfg.slot_hook = hook;
    return run_k_broadcast(g, tree, sources, cfg, seed);
  };
  const KBroadcastOutcome bb = broadcast(nullptr);
  const KBroadcastOutcome bh = broadcast(&noop);
  EXPECT_EQ(bb.status, bh.status);
  EXPECT_EQ(bb.slots, bh.slots);
  EXPECT_EQ(bb.delivered_prefix, bh.delivered_prefix);
  EXPECT_EQ(bb.root_resends, bh.root_resends);

  // TDMA takes no observers and no faults: its driver (which skips the
  // frame slots of empty buffers) against a hooked step() loop.
  if (mode != DriveMode::kClean) return;
  std::vector<NodeId> senders;
  for (NodeId v = 0; v < n; ++v)
    if (v != tree.root) senders.push_back(v);
  const baselines::TdmaOutcome tb =
      baselines::run_tdma_collection(g, tree, senders);
  std::deque<baselines::TdmaStation> tdma;
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v) {
    tdma.emplace_back(v, n, tree.parent[v], v == tree.root);
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    if (v != tree.root) tdma.back().enqueue(m);
    ptrs.push_back(&adapters.emplace_back(tdma.back()));
  }
  RadioNetwork net(g);
  net.observe({nullptr, nullptr, nullptr, &noop});
  net.attach(ptrs);
  while (tdma[tree.root].delivered() < senders.size()) net.step();
  EXPECT_TRUE(tb.completed);
  EXPECT_EQ(tb.slots, net.now());
  EXPECT_EQ(tb.collisions, net.metrics().collision_events);
}

INSTANTIATE_TEST_SUITE_P(
    Udg, DriveSkip,
    ::testing::Combine(::testing::Values(24, 48), ::testing::Values(1, 2, 3),
                       ::testing::Values(DriveMode::kClean, DriveMode::kStall,
                                         DriveMode::kFaulted)));

}  // namespace
