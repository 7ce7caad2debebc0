#pragma once

// Optional engine instrumentation: a TraceSink observes every physical
// event (transmission, delivery, collision). Used by tests that assert
// slot-level properties (e.g. "the token DFS never collides"), by the
// congestion experiment (E13), and for debugging protocol stacks.
//
// The sink is engine-side scaffolding, not part of the radio model — no
// protocol may base decisions on it.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "radio/message.h"

namespace radiomc {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                           const Message& m) = 0;
  virtual void on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                          const Message& m) = 0;
  virtual void on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                            std::uint32_t tx_neighbors) = 0;
};

/// Slot-granular observer, invoked once after every completed engine slot.
/// This is the cadence spine for periodic live telemetry (the perf
/// subsystem's SnapshotStreamer flushes metrics every N slots through it)
/// and, like TraceSink, is engine-side scaffolding: the hook sees only the
/// slot counter, stations cannot see the hook, and no protocol may base a
/// decision on anything it computes.
class SlotHook {
 public:
  virtual ~SlotHook() = default;
  virtual void on_slot_done(SlotTime t) = 0;
};

namespace telemetry {
struct Telemetry;  // telemetry/telemetry.h
}  // namespace telemetry
namespace perf {
class Profiler;  // perf/profiler.h
}  // namespace perf

/// Protocol-facing name of the telemetry aggregate.
using TelemetryHub = telemetry::Telemetry;

/// The optional observers a run driver attaches: the same four for every
/// protocol, so the run configs inherit them from here. All are borrowed,
/// null means off, and none ever feeds back into the protocol. The trace
/// sink and slot hook go on the engine (RadioNetwork::observe); the hub and
/// the profiler are written by the driver itself. Forward declarations
/// only, so no station-facing header pulls in the measurement layers.
struct Observers {
  /// Phase spans, counters and histograms for `--metrics-out`.
  TelemetryHub* telemetry = nullptr;
  /// Physical-event sink installed on the driver's network.
  TraceSink* trace = nullptr;
  /// Host-time spans and counters for `--perf-out`.
  perf::Profiler* profiler = nullptr;
  /// Per-slot observer installed on the driver's network (e.g. a
  /// perf::SnapshotStreamer).
  SlotHook* slot_hook = nullptr;
};

/// A run's observers for a later stage on its own network: every event and
/// slot pulse reaches the run's trace sink and slot hook with `origin`
/// added to its slot, so a driver that runs its stages one after another
/// on separate networks (ranking's collect, then deliver) writes one
/// timeline, and the later stage's events follow the earlier one's.
class ShiftedObservers final : public TraceSink, public SlotHook {
 public:
  ShiftedObservers(const Observers& inner, SlotTime origin)
      : inner_(inner), origin_(origin) {}

  /// `inner` with its trace sink and slot hook, where set, routed through
  /// this shift; the hub and the profiler pass unchanged.
  Observers observers() noexcept {
    Observers o = inner_;
    if (o.trace != nullptr) o.trace = this;
    if (o.slot_hook != nullptr) o.slot_hook = this;
    return o;
  }

  void on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                   const Message& m) override {
    if (inner_.trace != nullptr)
      inner_.trace->on_transmit(t + origin_, sender, ch, m);
  }
  void on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                  const Message& m) override {
    if (inner_.trace != nullptr)
      inner_.trace->on_deliver(t + origin_, receiver, ch, m);
  }
  void on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                    std::uint32_t tx_neighbors) override {
    if (inner_.trace != nullptr)
      inner_.trace->on_collision(t + origin_, receiver, ch, tx_neighbors);
  }
  void on_slot_done(SlotTime t) override {
    if (inner_.slot_hook != nullptr)
      inner_.slot_hook->on_slot_done(t + origin_);
  }

 private:
  Observers inner_;
  SlotTime origin_;
};

/// Counts per-node activity; the cheap always-on-able sink.
class ActivityCounter final : public TraceSink {
 public:
  explicit ActivityCounter(NodeId n)
      : transmissions(n, 0), deliveries(n, 0), collisions(n, 0), jams(n, 0) {}

  void on_transmit(SlotTime, NodeId sender, ChannelId,
                   const Message&) override {
    ++transmissions[sender];
  }
  void on_deliver(SlotTime, NodeId receiver, ChannelId,
                  const Message&) override {
    ++deliveries[receiver];
  }
  void on_collision(SlotTime, NodeId receiver, ChannelId,
                    std::uint32_t tx_neighbors) override {
    // tx_neighbors == 1 is a jam-killed clean reception (fault injection),
    // not a genuine collision; lumping the two inflates collision stats.
    if (tx_neighbors >= 2) {
      ++collisions[receiver];
    } else {
      ++jams[receiver];
    }
  }

  std::vector<std::uint64_t> transmissions;
  std::vector<std::uint64_t> deliveries;
  std::vector<std::uint64_t> collisions;  ///< >= 2 transmitting neighbors
  std::vector<std::uint64_t> jams;        ///< jam-induced losses (txn == 1)
};

/// Records a bounded window of raw events (for debugging and tests).
class EventRecorder final : public TraceSink {
 public:
  /// kTruncated is a sentinel appended exactly once when the capacity is
  /// first exceeded, so consumers see the truncation point in-band instead
  /// of silently reading a complete-looking prefix.
  enum class Kind : std::uint8_t { kTransmit, kDeliver, kCollision,
                                   kTruncated };
  struct Event {
    Kind kind;
    SlotTime slot;
    NodeId node;
    ChannelId channel;
    /// True iff the event carries a message (transmit/deliver). Collision
    /// events have no message — the receiver hears only noise — so
    /// msg_kind/origin/seq are then deliberately unusable sentinels.
    bool has_msg;
    MsgKind msg_kind;    // valid iff has_msg
    NodeId origin;       // valid iff has_msg
    std::uint32_t seq;   // valid iff has_msg
    /// Valid iff kind == kCollision: >= 2 for a genuine collision, == 1
    /// when fault injection jammed an otherwise-clean reception (the
    /// receiver cannot tell the difference; the trace can).
    std::uint32_t tx_neighbors;
  };

  explicit EventRecorder(std::size_t capacity = 1 << 20)
      : capacity_(capacity) {}

  void on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                   const Message& m) override {
    push({Kind::kTransmit, t, sender, ch, true, m.kind, m.origin, m.seq, 0});
  }
  void on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                  const Message& m) override {
    push({Kind::kDeliver, t, receiver, ch, true, m.kind, m.origin, m.seq, 0});
  }
  void on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                    std::uint32_t k) override {
    push({Kind::kCollision, t, receiver, ch, false, MsgKind::kData, kNoNode,
          0, k});
  }

  const std::vector<Event>& events() const noexcept { return events_; }
  bool truncated() const noexcept { return truncated_; }
  /// Events dropped after the capacity was reached (the kTruncated
  /// sentinel itself is not counted).
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void push(const Event& e) {
    if (events_.size() >= capacity_ + (truncated_ ? 1 : 0)) {
      if (!truncated_) {
        truncated_ = true;
        // The sentinel records the slot at which recording stopped.
        events_.push_back({Kind::kTruncated, e.slot, kNoNode, 0, false,
                           MsgKind::kData, kNoNode, 0, 0});
      }
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }
  std::size_t capacity_;
  std::vector<Event> events_;
  bool truncated_ = false;
  std::uint64_t dropped_ = 0;
};

}  // namespace radiomc
