#pragma once

// JsonlTraceSink: a TraceSink that streams physical events — and,
// optionally, per-slot-window aggregates — as one JSON object per line
// (JSONL). The format is grep/jq-friendly and diffable, which makes slot
// schedules inspectable the way the paper's slot-level arguments (§2.2
// gating, §3 ack subslots) are stated. The offline analysis subsystem
// (src/analysis/, `radiomc_trace`) parses the stream back into typed
// events, so this header is the authoritative writer of the
// `radiomc.trace/v2` schema.
//
// Stream layout (see docs/OBSERVABILITY.md for the field-by-field schema):
//   {"ev":"schema","v":"radiomc.trace/v2",...}        header, exactly once
//   {"ev":"tx","t":5,"node":3,"ch":0,"kind":"data","origin":3,"seq":0}
//   {"ev":"rx","t":5,"node":2,"ch":0,"kind":"data","origin":3,"seq":0,
//    "from":3,"fp":2}
//   {"ev":"coll","t":6,"node":1,"ch":0,"txn":2}
//   {"ev":"agg","t0":0,"t1":64,"tx":12,"rx":9,"coll":3,"jam":0}
//   {"ev":"truncated","t":900,"dropped":41}           only if capped
//
// The schema header is emitted lazily before the first line so run
// context (protocol name, slot structure, BFS levels) supplied after
// construction — e.g. once the setup phase has built the tree — still
// lands in it. `coll` lines with txn == 1 are jam-killed clean receptions
// (fault injection), txn >= 2 genuine collisions; the aggregate window
// counts them separately ("coll" vs "jam").
//
// Like every TraceSink it is engine-side scaffolding: stations cannot see
// it and protocols may not base decisions on it.

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "radio/message.h"
#include "radio/schedule.h"
#include "radio/trace.h"

namespace radiomc::telemetry {

/// The trace stream schema version written by JsonlTraceSink and required
/// by the analysis-side reader.
inline constexpr const char* kTraceSchemaVersion = "radiomc.trace/v2";

/// The complete set of `ev` line kinds a radiomc.trace/v2 stream may
/// contain. The writer must emit only these kinds and all of these kinds,
/// which tests/lint_test.cpp's round trip checks on a live stream.
inline constexpr std::string_view kTraceLineKinds[] = {
    "schema",     ///< header: version, protocol, slot algebra, BFS levels
    "tx",         ///< a station transmitted
    "rx",         ///< clean single-transmitter delivery
    "coll",       ///< collision (txn >= 2) or jam-killed reception (txn == 1)
    "agg",        ///< per-window tx/rx/coll/jam aggregate
    "truncated",  ///< the writer hit its event cap; the trace is a prefix
};

/// True iff `ev` is one of kTraceLineKinds.
bool is_trace_line_kind(std::string_view ev) noexcept;

/// The message-kind wire names of tx/rx lines: the one MsgKind <-> name
/// mapping, written by JsonlTraceSink and read back by the analysis
/// reader. Every MsgKind has exactly one entry.
inline constexpr std::pair<MsgKind, std::string_view> kMsgKindNames[] = {
    {MsgKind::kData, "data"},
    {MsgKind::kAck, "ack"},
    {MsgKind::kLeader, "leader"},
    {MsgKind::kBfsAnnounce, "bfs_announce"},
    {MsgKind::kDfsToken, "dfs_token"},
    {MsgKind::kBcastData, "bcast_data"},
    {MsgKind::kNack, "nack"},
    {MsgKind::kSetupReport, "setup_report"},
};

/// The kind whose wire name is `name`; nullopt for an unknown name.
std::optional<MsgKind> msg_kind_from_name(std::string_view name) noexcept;

struct JsonlOptions {
  bool events = true;  ///< per-event lines
  /// Window length of "agg" lines; 0 disables aggregates.
  std::uint64_t aggregate_every = 0;
  /// Cap on per-event lines (0 = unbounded). Once reached, further event
  /// lines are dropped (aggregate windows keep counting, so totals stay
  /// complete) and `finish()` emits an explicit {"ev":"truncated"} record
  /// — downstream consumers must never mistake a capped trace for a
  /// complete one.
  std::uint64_t max_events = 0;
};

class JsonlTraceSink final : public TraceSink {
 public:
  using Options = JsonlOptions;

  /// Streams to `out` (borrowed; must outlive the sink).
  explicit JsonlTraceSink(std::ostream& out, Options opt = {});
  /// Opens `path` for writing and owns the stream. Check `ok()`.
  explicit JsonlTraceSink(const std::string& path, Options opt = {});
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  // -- Run context, recorded in the schema header line. Call before the
  //    first event reaches the sink; later calls are ignored (the header
  //    has already been written).

  /// Tags the stream with the protocol that produced it ("collection",
  /// "p2p", ...); the auditor gates protocol-specific checks on it.
  void set_protocol(std::string protocol);
  /// Records the slot algebra (decay_len / ack subslots / mod-3 gating) so
  /// readers can decode slot numbers into (phase, subslot) the way the
  /// stations did.
  void set_slot_structure(const SlotStructure& slots);
  /// Records the BFS level of every node (index = node id), enabling
  /// per-level analysis (advance rates, collision hot spots, root
  /// identification) without re-running setup.
  void set_levels(std::vector<std::uint32_t> levels);

  void on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                   const Message& m) override;
  void on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                  const Message& m) override;
  void on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                    std::uint32_t tx_neighbors) override;

  /// Emits the trailing partial aggregate window (if any) and the
  /// truncation record (if events were dropped), then flushes the stream.
  /// Called by the destructor; call earlier to read mid-run.
  void finish();

  bool ok() const noexcept { return out_ != nullptr && out_->good(); }
  std::uint64_t lines_written() const noexcept { return lines_; }
  /// True iff max_events was exceeded and event lines were dropped.
  bool truncated() const noexcept { return dropped_ > 0; }
  std::uint64_t dropped_events() const noexcept { return dropped_; }

 private:
  void emit_schema();
  void event_line(const char* ev, SlotTime t, NodeId node, ChannelId ch,
                  const Message* m, std::uint32_t tx_neighbors);
  void roll_window(SlotTime t);
  void emit_window();
  void write_line(const std::string& line);

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  Options opt_;
  std::uint64_t lines_ = 0;
  bool finished_ = false;

  // Schema-header context (lazily written before the first line).
  bool schema_written_ = false;
  std::string protocol_;
  std::optional<SlotStructure> slots_;
  std::vector<std::uint32_t> levels_;

  // Event-line cap bookkeeping.
  std::uint64_t events_written_ = 0;
  std::uint64_t dropped_ = 0;
  SlotTime first_dropped_slot_ = 0;

  // Current aggregate window [win_start_, win_start_ + aggregate_every).
  SlotTime win_start_ = 0;
  bool win_any_ = false;
  std::uint64_t win_tx_ = 0, win_rx_ = 0, win_coll_ = 0, win_jam_ = 0;
};

}  // namespace radiomc::telemetry
