#pragma once

// Typed in-memory form of a `radiomc.trace/v2` JSONL stream (the format
// written by telemetry::JsonlTraceSink). The analysis subsystem — the
// message-lifecycle builder, the theory-conformance auditor and the
// anomaly scanner — all consume this representation; only the reader
// (trace_reader.h) knows about JSON.
//
// A trace is the flight recorder of one run: every physical transmit /
// deliver / collision the engine observed, in slot order, plus the run
// context (protocol, slot algebra, BFS levels) the writer recorded in the
// schema header. Analysis never touches live protocol state, so a trace
// audited today and one audited in a year are judged by the same code —
// the offline half of the "no protocol may base decisions on the trace"
// contract in radio/trace.h.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "radio/message.h"
#include "radio/schedule.h"

namespace radiomc::analysis {

enum class EvKind : std::uint8_t {
  kTx,         ///< a station transmitted
  kRx,         ///< a clean (single-transmitter) delivery
  kCollision,  ///< the receiver heard noise (txn >= 2) or a jam (txn == 1)
};

struct TraceEvent {
  EvKind ev = EvKind::kTx;
  SlotTime t = 0;
  NodeId node = kNoNode;  ///< transmitter (tx) or receiver (rx/coll)
  ChannelId ch = 0;

  // tx/rx only.
  MsgKind kind = MsgKind::kData;
  NodeId origin = kNoNode;
  std::uint32_t seq = 0;
  NodeId dest = kNoNode;         ///< absent in the stream -> kNoNode
  NodeId from = kNoNode;         ///< rx: immediate transmitter
  NodeId from_parent = kNoNode;  ///< rx: transmitter's BFS parent

  // coll only: >= 2 genuine collision, == 1 jam-killed clean reception.
  std::uint32_t tx_neighbors = 0;

  bool is_collision_genuine() const noexcept {
    return ev == EvKind::kCollision && tx_neighbors >= 2;
  }
  bool is_jam() const noexcept {
    return ev == EvKind::kCollision && tx_neighbors <= 1;
  }
};

/// One "agg" window line.
struct TraceWindow {
  SlotTime t0 = 0, t1 = 0;
  std::uint64_t tx = 0, rx = 0, coll = 0, jam = 0;
};

/// The schema header: run context recorded by the writer.
struct TraceSchema {
  std::string version;   ///< e.g. "radiomc.trace/v2"
  std::string protocol;  ///< "" when the writer did not tag it
  /// Slot algebra of the traced protocol; absent for schedules without a
  /// PhaseClock (e.g. setup traces). Phase-based checks need it.
  std::optional<SlotStructure> slots;
  std::uint64_t aggregate_every = 0;
  /// BFS level per node id; empty when the writer had no tree.
  std::vector<std::uint32_t> levels;

  bool has_levels() const noexcept { return !levels.empty(); }
  /// Level of `v`, or kNoLevel when unknown / out of range.
  static constexpr std::uint32_t kNoLevel = static_cast<std::uint32_t>(-1);
  std::uint32_t level_of(NodeId v) const noexcept {
    return v < levels.size() ? levels[v] : kNoLevel;
  }
  /// The unique level-0 node, or kNoNode when levels are absent.
  NodeId root() const noexcept {
    for (NodeId v = 0; v < levels.size(); ++v)
      if (levels[v] == 0) return v;
    return kNoNode;
  }
};

struct Trace {
  TraceSchema schema;
  std::vector<TraceEvent> events;     ///< tx/rx/coll, stream (= slot) order
  std::vector<TraceWindow> windows;   ///< "agg" lines, stream order

  /// True iff the writer hit its event cap and dropped lines: the event
  /// list is a prefix, not the whole run, and the auditor must refuse to
  /// certify it.
  bool truncated = false;
  std::uint64_t dropped_events = 0;
  SlotTime truncated_at = 0;  ///< first dropped slot (valid iff truncated)

  /// Largest slot seen across events (0 for an empty trace).
  SlotTime last_slot = 0;

  // Event-kind totals (jam vs genuine collision kept apart).
  std::uint64_t tx_count = 0;
  std::uint64_t rx_count = 0;
  std::uint64_t collision_count = 0;  ///< txn >= 2
  std::uint64_t jam_count = 0;        ///< txn == 1
};

}  // namespace radiomc::analysis
