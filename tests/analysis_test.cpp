// The offline trace-analysis subsystem (src/analysis): JSONL write->read
// round trips against the live sink, schema-version rejection, the
// message-lifecycle builder on a hand-built 3-hop trace with a known
// retransmission, and the conformance auditor end-to-end — a real
// fault-free collection run must certify, a deliberately corrupted trace
// (acks stripped) and a truncated trace must not.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/anomaly.h"
#include "analysis/conformance.h"
#include "analysis/lifecycle.h"
#include "analysis/report.h"
#include "analysis/trace_reader.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "support/rng.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc {
namespace {

using namespace radiomc::analysis;

TraceReadResult parse(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

// ---------------------------------------------------------------------------
// Write -> read round trip against the real sink.

TEST(TraceRoundTrip, EveryEventKindAndContext) {
  std::ostringstream os;
  telemetry::JsonlTraceSink sink(os);
  sink.set_protocol("collection");
  SlotStructure slots;
  slots.decay_len = 4;
  slots.ack_subslots = true;
  slots.mod3_gating = false;
  sink.set_slot_structure(slots);
  sink.set_levels({2, 1, 0});

  Message d;
  d.kind = MsgKind::kData;
  d.origin = 0;
  d.seq = 3;
  d.dest = 2;
  d.sender = 0;
  d.sender_parent = 1;
  sink.on_transmit(0, 0, 0, d);
  sink.on_deliver(0, 1, 0, d);
  Message a;
  a.kind = MsgKind::kAck;
  a.origin = 0;
  a.seq = 3;
  a.dest = 0;
  a.sender = 1;
  a.sender_parent = 2;
  sink.on_deliver(1, 0, 0, a);
  sink.on_collision(2, 1, 0, 2);  // genuine collision
  sink.on_collision(3, 1, 0, 1);  // jam-killed clean reception
  sink.finish();

  const TraceReadResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error << " at line " << r.line_no;
  const Trace& tr = r.trace;

  EXPECT_EQ(tr.schema.version, telemetry::kTraceSchemaVersion);
  EXPECT_EQ(tr.schema.protocol, "collection");
  ASSERT_TRUE(tr.schema.slots.has_value());
  EXPECT_EQ(tr.schema.slots->decay_len, 4u);
  EXPECT_TRUE(tr.schema.slots->ack_subslots);
  EXPECT_FALSE(tr.schema.slots->mod3_gating);
  ASSERT_EQ(tr.schema.levels.size(), 3u);
  EXPECT_EQ(tr.schema.root(), 2u);

  ASSERT_EQ(tr.events.size(), 5u);
  EXPECT_EQ(tr.events[0].ev, EvKind::kTx);
  EXPECT_EQ(tr.events[0].kind, MsgKind::kData);
  EXPECT_EQ(tr.events[0].origin, 0u);
  EXPECT_EQ(tr.events[0].seq, 3u);
  EXPECT_EQ(tr.events[0].dest, 2u);
  // tx lines do not carry from/fp (only deliveries need hop attribution).
  EXPECT_EQ(tr.events[0].from, kNoNode);

  EXPECT_EQ(tr.events[1].ev, EvKind::kRx);
  EXPECT_EQ(tr.events[1].node, 1u);
  EXPECT_EQ(tr.events[1].from, 0u);
  EXPECT_EQ(tr.events[1].from_parent, 1u);

  EXPECT_EQ(tr.events[2].kind, MsgKind::kAck);
  EXPECT_EQ(tr.events[2].dest, 0u);

  EXPECT_TRUE(tr.events[3].is_collision_genuine());
  EXPECT_FALSE(tr.events[3].is_jam());
  EXPECT_TRUE(tr.events[4].is_jam());

  EXPECT_EQ(tr.tx_count, 1u);
  EXPECT_EQ(tr.rx_count, 2u);
  EXPECT_EQ(tr.collision_count, 1u);
  EXPECT_EQ(tr.jam_count, 1u);
  EXPECT_EQ(tr.last_slot, 3u);
  EXPECT_FALSE(tr.truncated);
}

TEST(TraceRoundTrip, AllMessageKindNamesSurvive) {
  const MsgKind kinds[] = {MsgKind::kData,      MsgKind::kAck,
                           MsgKind::kLeader,    MsgKind::kBfsAnnounce,
                           MsgKind::kDfsToken,  MsgKind::kBcastData,
                           MsgKind::kNack,      MsgKind::kSetupReport};
  std::ostringstream os;
  telemetry::JsonlTraceSink sink(os);
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    Message m;
    m.kind = kinds[i];
    m.origin = static_cast<NodeId>(i);
    sink.on_transmit(i, 0, 0, m);
  }
  sink.finish();
  const TraceReadResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.events.size(), std::size(kinds));
  for (std::size_t i = 0; i < std::size(kinds); ++i)
    EXPECT_EQ(r.trace.events[i].kind, kinds[i]) << "kind index " << i;
}

TEST(TraceRoundTrip, AggregateWindowsSplitJamFromCollision) {
  std::ostringstream os;
  telemetry::JsonlOptions opt;
  opt.events = false;
  opt.aggregate_every = 8;
  telemetry::JsonlTraceSink sink(os, opt);
  Message m;
  sink.on_transmit(0, 0, 0, m);
  sink.on_collision(1, 1, 0, 3);  // genuine
  sink.on_collision(2, 1, 0, 1);  // jam
  sink.on_collision(3, 1, 0, 1);  // jam
  sink.finish();
  const TraceReadResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.windows.size(), 1u);
  EXPECT_EQ(r.trace.windows[0].tx, 1u);
  EXPECT_EQ(r.trace.windows[0].coll, 1u);
  EXPECT_EQ(r.trace.windows[0].jam, 2u);
}

TEST(TraceRoundTrip, TruncationRecordRoundTrips) {
  std::ostringstream os;
  telemetry::JsonlOptions opt;
  opt.max_events = 2;
  telemetry::JsonlTraceSink sink(os, opt);
  Message m;
  m.kind = MsgKind::kData;
  for (SlotTime t = 0; t < 5; ++t) sink.on_transmit(t, 0, 0, m);
  sink.finish();
  EXPECT_TRUE(sink.truncated());
  EXPECT_EQ(sink.dropped_events(), 3u);

  const TraceReadResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.trace.truncated);
  EXPECT_EQ(r.trace.dropped_events, 3u);
  EXPECT_EQ(r.trace.truncated_at, 2u);  // first dropped slot
  EXPECT_EQ(r.trace.events.size(), 2u);
}

// ---------------------------------------------------------------------------
// Reader strictness.

TEST(TraceReader, RejectsWrongSchemaVersion) {
  const TraceReadResult r = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v1\"}\n"
      "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0}\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("radiomc.trace/v1"), std::string::npos) << r.error;
  EXPECT_EQ(r.line_no, 1u);
}

TEST(TraceReader, RejectsMissingSchemaHeader) {
  const TraceReadResult r = parse(
      "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0}\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("schema"), std::string::npos) << r.error;
}

TEST(TraceReader, RejectsUnknownRecordAndMalformedLine) {
  const TraceReadResult unknown = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\"}\n"
      "{\"ev\":\"wormhole\",\"t\":0}\n");
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.line_no, 2u);

  const TraceReadResult malformed = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\"}\n"
      "{\"ev\":\"tx\",\"t\":}\n");
  EXPECT_FALSE(malformed.ok);
  EXPECT_EQ(malformed.line_no, 2u);

  const TraceReadResult empty = parse("");
  EXPECT_FALSE(empty.ok);

  // A known field out of its type's range or of the wrong kind is an
  // error on its own line, never a wrapped, truncated or default value.
  const char* const kOutOfRange[] = {
      "{\"ev\":\"tx\",\"t\":99999999999999999999999,\"node\":1,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":1,\"seq\":0}",
      "{\"ev\":\"tx\",\"t\":3,\"node\":4294967296,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":1,\"seq\":0}",
      "{\"ev\":\"tx\",\"t\":3,\"node\":1,\"ch\":-1,"
      "\"kind\":\"data\",\"origin\":1,\"seq\":0}",
      "{\"ev\":\"tx\",\"t\":3,\"node\":1,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":1,\"seq\":1.5}",
      "{\"ev\":\"tx\",\"t\":3,\"node\":1,\"ch\":0,"
      "\"kind\":7,\"origin\":1,\"seq\":0}",
  };
  for (const char* bad : kOutOfRange) {
    const TraceReadResult r = parse(
        "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\"}\n"
        "{\"ev\":\"tx\",\"t\":2,\"node\":1,\"ch\":0,\"kind\":\"data\","
        "\"origin\":1,\"seq\":0}\n" +
        std::string(bad) + "\n");
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_EQ(r.line_no, 3u) << bad;
  }
}

TEST(TraceReader, IgnoresUnknownKeysAndBlankLines) {
  const TraceReadResult r = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\",\"future\":\"field\"}\n"
      "\n"
      "{\"ev\":\"tx\",\"t\":4,\"node\":1,\"ch\":0,\"kind\":\"data\","
      "\"origin\":1,\"seq\":0,\"novel\":7}\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.events.size(), 1u);
  EXPECT_EQ(r.trace.events[0].t, 4u);
}

// ---------------------------------------------------------------------------
// Lifecycle builder: hand-built 3-hop trace, chain 0 -> 1 -> 2 -> 3 (root),
// with one known retransmission (node 1's first relay collides at node 2).

const char kThreeHopTrace[] =
    "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\",\"protocol\":"
    "\"collection\",\"decay_len\":2,\"ack\":true,\"mod3\":false,"
    "\"levels\":[3,2,1,0]}\n"
    // hop 1: 0 -> 1, acked next slot.
    "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5}\n"
    "{\"ev\":\"rx\",\"t\":0,\"node\":1,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5,\"from\":0,\"fp\":1}\n"
    "{\"ev\":\"rx\",\"t\":1,\"node\":0,\"ch\":0,\"kind\":\"ack\","
    "\"origin\":0,\"seq\":5,\"dest\":0,\"from\":1,\"fp\":2}\n"
    // node 1's first relay attempt is lost to a collision at node 2...
    "{\"ev\":\"tx\",\"t\":4,\"node\":1,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5}\n"
    "{\"ev\":\"coll\",\"t\":4,\"node\":2,\"ch\":0,\"txn\":2}\n"
    // ...and the retransmission lands (hop 2: 1 -> 2).
    "{\"ev\":\"tx\",\"t\":8,\"node\":1,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5}\n"
    "{\"ev\":\"rx\",\"t\":8,\"node\":2,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5,\"from\":1,\"fp\":2}\n"
    "{\"ev\":\"rx\",\"t\":9,\"node\":1,\"ch\":0,\"kind\":\"ack\","
    "\"origin\":0,\"seq\":5,\"dest\":1,\"from\":2,\"fp\":3}\n"
    // hop 3: 2 -> 3 (the root); the run ends before the ack subslot.
    "{\"ev\":\"tx\",\"t\":12,\"node\":2,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5}\n"
    "{\"ev\":\"rx\",\"t\":12,\"node\":3,\"ch\":0,\"kind\":\"data\","
    "\"origin\":0,\"seq\":5,\"from\":2,\"fp\":3}\n";

TEST(Lifecycle, ThreeHopFlightWithRetransmission) {
  const TraceReadResult r = parse(kThreeHopTrace);
  ASSERT_TRUE(r.ok) << r.error;
  const auto flights = build_lifecycles(r.trace);
  ASSERT_EQ(flights.size(), 1u);
  const FlightRecord* f = find_flight(flights, 0, 5);
  ASSERT_NE(f, nullptr);

  EXPECT_EQ(f->transmissions, 4u);  // t=0, 4 (lost), 8, 12
  ASSERT_EQ(f->hops.size(), 3u);
  EXPECT_EQ(f->retransmissions(), 1u);
  EXPECT_TRUE(f->reached_root);
  EXPECT_EQ(f->first_slot, 0u);
  EXPECT_EQ(f->completed_slot, 12u);
  EXPECT_EQ(f->total_inter_hop_wait(), 12u);

  EXPECT_EQ(f->hops[0].from, 0u);
  EXPECT_EQ(f->hops[0].to, 1u);
  EXPECT_EQ(f->hops[0].from_level, 3u);
  EXPECT_EQ(f->hops[0].to_level, 2u);
  EXPECT_TRUE(f->hops[0].acked);
  EXPECT_EQ(f->hops[0].ack_slot, 1u);
  EXPECT_EQ(f->hops[0].ack_latency(), 1u);

  EXPECT_EQ(f->hops[1].rx_slot, 8u);
  EXPECT_TRUE(f->hops[1].acked);

  // The final hop's ack subslot (13) lies past the end of the trace: not
  // acked, but explicitly exempt rather than anomalous.
  EXPECT_FALSE(f->hops[2].acked);
  EXPECT_TRUE(f->hops[2].ack_pending_at_end);

  // The auditor agrees: ack certainty holds on this trace.
  const AuditReport audit = audit_trace(r.trace, flights);
  const CheckResult* ack = audit.find("ack-certainty");
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->status, CheckStatus::kPass) << ack->detail;
  const CheckResult* once = audit.find("exactly-once");
  ASSERT_NE(once, nullptr);
  EXPECT_EQ(once->status, CheckStatus::kPass) << once->detail;
}

TEST(Lifecycle, OverheardCopiesAreNotHops) {
  // A delivery whose fp is NOT the receiver is an overheard copy.
  const TraceReadResult r = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\",\"levels\":[1,0,1]}\n"
      "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0}\n"
      "{\"ev\":\"rx\",\"t\":0,\"node\":1,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0,\"from\":0,\"fp\":1}\n"
      "{\"ev\":\"rx\",\"t\":0,\"node\":2,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0,\"from\":0,\"fp\":1}\n");
  ASSERT_TRUE(r.ok) << r.error;
  const auto flights = build_lifecycles(r.trace);
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(flights[0].hops.size(), 1u);
  EXPECT_EQ(flights[0].overheard, 1u);
  EXPECT_TRUE(flights[0].reached_root);
}

// ---------------------------------------------------------------------------
// Conformance auditor end-to-end on real collection runs.

std::string traced_collection_run(std::uint64_t max_events = 0) {
  const Graph g = gen::grid(6, 6);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::ostringstream os;
  telemetry::JsonlOptions opt;
  opt.max_events = max_events;
  telemetry::JsonlTraceSink sink(os, opt);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  sink.set_protocol("collection");
  sink.set_slot_structure(cfg.slots);
  sink.set_levels(tree.level);
  cfg.trace = &sink;
  Rng rng(0xA11A);
  std::vector<Message> init;
  for (std::uint32_t i = 0; i < 12; ++i) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = static_cast<NodeId>(1 + rng.next_below(g.num_nodes() - 1));
    m.seq = i;
    init.push_back(m);
  }
  run_collection(g, tree, init, cfg, rng.next());
  sink.finish();
  return os.str();
}

TEST(Conformance, FaultFreeCollectionRunCertifies) {
  const TraceReadResult r = parse(traced_collection_run());
  ASSERT_TRUE(r.ok) << r.error;
  const auto flights = build_lifecycles(r.trace);
  const AuditReport audit = audit_trace(r.trace, flights);
  EXPECT_TRUE(audit.pass);
  for (const char* id : {"trace-complete", "ack-certainty", "exactly-once",
                         "prefix-monotone"}) {
    const CheckResult* c = audit.find(id);
    ASSERT_NE(c, nullptr) << id;
    EXPECT_EQ(c->status, CheckStatus::kPass) << id << ": " << c->detail;
  }
  // The statistical checks must have judged real samples, not skipped.
  const CheckResult* adv = audit.find("advance-rate");
  ASSERT_NE(adv, nullptr);
  EXPECT_EQ(adv->status, CheckStatus::kPass) << adv->detail;
  EXPECT_GT(adv->trials, 0u);
  EXPECT_GE(adv->wilson_high, mu_advance());

  // The report document serializes and carries the verdict.
  const AnomalyReport anomalies = scan_anomalies(r.trace);
  const std::string doc = report_json(r.trace, flights, audit, anomalies);
  EXPECT_NE(doc.find("\"radiomc.trace.report/v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"pass\":true"), std::string::npos);
}

TEST(Conformance, CorruptedTraceFailsAckCertainty) {
  // Strip every ack delivery: Thm 3.1's certainty must be violated.
  std::istringstream in(traced_collection_run());
  std::string corrupted, line;
  while (std::getline(in, line))
    if (line.find("\"kind\":\"ack\"") == std::string::npos ||
        line.find("\"ev\":\"rx\"") == std::string::npos)
      corrupted += line + "\n";
  const TraceReadResult r = parse(corrupted);
  ASSERT_TRUE(r.ok) << r.error;
  const auto flights = build_lifecycles(r.trace);
  const AuditReport audit = audit_trace(r.trace, flights);
  EXPECT_FALSE(audit.pass);
  const CheckResult* ack = audit.find("ack-certainty");
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->status, CheckStatus::kFail);
}

TEST(Conformance, TruncatedTraceIsRefused) {
  const TraceReadResult r = parse(traced_collection_run(/*max_events=*/40));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.trace.truncated);
  const auto flights = build_lifecycles(r.trace);
  const AuditReport audit = audit_trace(r.trace, flights);
  EXPECT_FALSE(audit.pass);
  const CheckResult* complete = audit.find("trace-complete");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->status, CheckStatus::kFail);
  // Every downstream check is skipped, not judged on the prefix.
  for (const char* id : {"ack-certainty", "exactly-once", "advance-rate"}) {
    const CheckResult* c = audit.find(id);
    ASSERT_NE(c, nullptr) << id;
    EXPECT_EQ(c->status, CheckStatus::kSkip) << id;
  }
}

TEST(Conformance, MuAdvanceMatchesTheorem41) {
  const double inv_e = std::exp(-1.0);
  EXPECT_DOUBLE_EQ(mu_advance(), inv_e * (1.0 - inv_e));
  EXPECT_NEAR(mu_advance(), 0.2325, 5e-4);
}

// ---------------------------------------------------------------------------
// Anomaly scanner.

TEST(Anomaly, CleanRunFlagsNothing) {
  const TraceReadResult r = parse(traced_collection_run());
  ASSERT_TRUE(r.ok) << r.error;
  const AnomalyReport rep = scan_anomalies(r.trace);
  EXPECT_TRUE(rep.clean());
  EXPECT_FALSE(rep.levels.empty());
}

TEST(Anomaly, DetectsStallWindow) {
  // Two deliveries 10'000 slots apart with the default threshold.
  const TraceReadResult r = parse(
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\"}\n"
      "{\"ev\":\"rx\",\"t\":0,\"node\":1,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":0}\n"
      "{\"ev\":\"rx\",\"t\":10000,\"node\":1,\"ch\":0,\"kind\":\"data\","
      "\"origin\":0,\"seq\":1}\n");
  ASSERT_TRUE(r.ok) << r.error;
  const AnomalyReport rep = scan_anomalies(r.trace);
  ASSERT_EQ(rep.stalls.size(), 1u);
  EXPECT_EQ(rep.stalls[0].from, 0u);
  EXPECT_EQ(rep.stalls[0].to, 10000u);
  EXPECT_FALSE(rep.clean());
}

}  // namespace
}  // namespace radiomc
