#pragma once

// The slot-synchronous radio network engine.
//
// Implements exactly the model of §1.1: communication proceeds in
// synchronous time slots; in each slot each station either transmits or
// receives; a receiving station hears a message iff *exactly one* of its
// graph neighbors transmits; there is no collision detection (a collision
// and silence are indistinguishable to the receiver).
//
// Channels: the paper runs collection and distribution concurrently
// "either by using separate channels or by multiplexing" (§1.4) and then
// assumes separate channels. The engine therefore supports `num_channels`
// independent channels; the collision rule applies per channel; a station
// has (conceptually) one transceiver per channel, so it may transmit on
// several channels in one slot and receives on every channel it is not
// transmitting on. Set `rx_while_tx_other = false` for a strict
// single-transceiver half-duplex variant. Single-channel time
// multiplexing is expressed by TimeDivisionStation (see station.h).
//
// Active-set hot path: per-slot cost is proportional to the stations that
// are *doing* something, not to n. Phase 1 polls only the active set:
// a station is polled in a slot only if it was woken for it, by a wake or
// a timer (the Waker contract of radio/waker.h); transmitting buys
// nothing. Phase 2 scatters each transmission over a flat CSR adjacency
// copy (radio/csr.h) into struct-of-arrays receiver cells, marking each
// newly-touched cell in an ordered bitset
// (radio/ordered_bits.h); Phase 3 drains the marks, which visits only the
// touched cells, in (node, channel) order, with no sort. A slot
// with nobody to poll is not run at all: `run` and `run_until` skip idle
// spans (see their comments), and every driver advances time through one
// of them, the ethernet bus too, so a run pays for its traffic, not for
// its length. `step` is the bare primitive, for tests and microbenchmarks;
// no driver calls it. The delivery stream,
// NetMetrics, traces, and capture-RNG consumption are byte-identical to
// the pre-rewrite full-scan engine — proven over a randomized matrix by
// tests/engine_diff_test.cpp against the frozen reference implementation
// in tests/reference_engine.{h,cpp}.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/graph.h"
#include "radio/active_set.h"
#include "radio/csr.h"
#include "radio/message.h"
#include "radio/ordered_bits.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"

namespace radiomc {

/// Aggregate counters maintained by the engine; used by benches and by
/// tests that assert behavioural properties (e.g. "token DFS never
/// collides").
struct NetMetrics {
  std::uint64_t slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;        ///< successful receptions
  std::uint64_t collision_events = 0;  ///< (listener, channel, slot) with >= 2 transmitting neighbors
  std::uint64_t capture_deliveries = 0;  ///< collisions resolved by capture (Remark 3 mode)

  // Fault-injection counters (src/faults/); all zero unless a FaultSchedule
  // is installed via set_faults.
  std::uint64_t fault_jams = 0;   ///< clean receptions killed by jamming
  std::uint64_t fault_drops = 0;  ///< deliveries lost to message drops
  std::uint64_t fault_link_blocked = 0;  ///< (tx, neighbor) pairs cut by a down link
  std::uint64_t fault_crashed_slots = 0;  ///< (node, slot) pairs spent crashed

  void reset() { *this = NetMetrics{}; }
};

/// Scheduling observability, separate from NetMetrics because it describes
/// the engine's own economy rather than the simulated radio physics (and
/// NetMetrics must stay field-for-field comparable with the reference
/// engine). Tests use it to prove the active set actually pays off.
struct EngineStats {
  std::uint64_t station_polls = 0;  ///< on_slot invocations
  std::uint64_t wake_events = 0;    ///< Waker::wake calls that raised a mark
  std::uint64_t peak_active = 0;    ///< max active-set size seen in a slot
};

class RadioNetwork {
 public:
  struct Config {
    ChannelId num_channels = 1;
    /// If true (default), a station transmitting on channel c still
    /// receives on the other channels in the same slot (one transceiver per
    /// channel, the paper's separate-channels idealization). If false, any
    /// transmission mutes all reception that slot (strict half duplex).
    bool rx_while_tx_other = true;
    /// §8 Remark 3's alternative conflict model ("in case of a conflict
    /// the receiver may get one of the messages"): with this probability a
    /// listener with >= 2 transmitting neighbors receives a uniformly
    /// chosen one of their messages instead of silence. 0 = the paper's
    /// main model (and the default).
    double capture_prob = 0.0;
    /// Engine-level randomness used for capture resolution. Drivers derive
    /// it from their master stream via `Rng::split` so parallel trials get
    /// independent capture randomness; unset falls back to a fixed
    /// historical stream (`Rng(rng_tags::kCaptureFallbackSeed)`).
    std::optional<Rng> capture_stream;
  };

  /// The graph must outlive the network.
  explicit RadioNetwork(const Graph& g) : RadioNetwork(g, Config{}) {}
  RadioNetwork(const Graph& g, Config cfg);

  /// Registers the stations, one per node, in node-id order, builds the
  /// flat CSR scatter structure, and calls each station's `on_attach` with
  /// its Waker (in node order). Stations are not owned; the caller keeps
  /// them alive while the network runs.
  void attach(std::vector<Station*> stations);

  /// Runs one synchronous slot.
  void step();

  /// Runs `count` slots, with the same result as `count` calls of step().
  /// Idle slots are skipped rather than run: a slot is idle when the
  /// active set is empty, no wake is pending and no timer is due at it, so
  /// nobody would be polled, transmit or receive. Skipping one advances
  /// only now(), `metrics().slots` and the active set's horizon. A slot
  /// hook or an enabled fault schedule turns the skip off (the hook must
  /// be pulsed and the schedule advanced in every slot); a trace sink
  /// does not, since an idle slot emits no events.
  void run(SlotTime count);

  /// Runs slots until `progress()` reaches `target`, now() reaches `end`,
  /// or `watchdog` fires, and returns `watchdog.status` of the run: every
  /// protocol driver's "run until the k-th message is in". It stops on the
  /// same slot, with the same watchdog state, as a step() loop that tests
  /// all three after every slot. `progress` is a count only a slot can
  /// raise, read before the first slot and after each slot run; an idle
  /// slot touches no station, so skipping it (as run() does) cannot change
  /// it, and a skip never passes the watchdog's deadline.
  template <typename Progress>
  RunStatus run_until(std::uint64_t target, Progress&& progress, SlotTime end,
                      StallWatchdog& watchdog) {
    std::uint64_t p = progress();
    while (p < target && now_ < end) {
      if (pass_idle(std::min(end, watchdog.deadline()))) {
        step();
        p = progress();
      }
      if (watchdog.stalled(now_, p)) break;
    }
    return watchdog.status(p >= target);
  }

  SlotTime now() const noexcept { return now_; }
  const Graph& graph() const noexcept { return *graph_; }
  const Config& config() const noexcept { return cfg_; }
  const NetMetrics& metrics() const noexcept { return metrics_; }
  NetMetrics& metrics() noexcept { return metrics_; }
  const EngineStats& engine_stats() const noexcept { return stats_; }

  /// Active-set introspection (tests, debugging; not part of the radio
  /// model — stations must never consult another station's activity).
  bool station_active(NodeId v) const noexcept {
    return active_set_.contains(v);
  }
  /// Wakes a station from driver level (between slots); run_setup does so
  /// at each epoch and attempt boundary of its schedule.
  void wake_station(NodeId v) { active_set_.wake(v); }

  /// Installs an observer for physical events (not owned; nullptr to
  /// remove). Instrumentation only — stations cannot see it.
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }

  /// Installs a run's engine-side observers: `o.trace` as the trace sink
  /// and `o.slot_hook` as the per-slot pulse, called once at the end of
  /// every slot (both not owned; null leaves them off). One pointer test
  /// per slot each when unset — stream-identical to a build without them.
  /// The hub and the profiler in `o` are the driver's to write.
  void observe(const Observers& o) noexcept {
    trace_ = o.trace;
    slot_hook_ = o.slot_hook;
  }

  /// Installs a fault schedule (not owned; nullptr to remove). A crashed
  /// station neither transmits nor receives (its slot hooks are not
  /// called); a down link carries nothing in either direction; a jammed
  /// receiver observes collision-indistinguishable silence; dropped
  /// deliveries vanish. Null or disabled schedules leave the engine on its
  /// exact legacy code path — zero cost when off.
  void set_faults(FaultSchedule* faults) noexcept { faults_ = faults; }
  const FaultSchedule* faults() const noexcept { return faults_; }

 private:
  const Graph* graph_;
  Config cfg_;
  std::vector<Station*> stations_;
  SlotTime now_ = 0;
  NetMetrics metrics_;
  EngineStats stats_;
  TraceSink* trace_ = nullptr;
  SlotHook* slot_hook_ = nullptr;
  FaultSchedule* faults_ = nullptr;
  Rng capture_rng_;

  // Passes the idle span that starts at now(), up to `limit`, unless a
  // slot hook or an enabled fault schedule forbids the skip. Returns
  // whether a slot before `limit` is left to run.
  bool pass_idle(SlotTime limit);

  // Scheduling state.
  ActiveSet active_set_;
  std::vector<Waker> wakers_;        // one per node, stable after attach
  CsrAdjacency adj_;                 // flat scatter structure

  // Per-slot state, epoch-stamped or drained so nothing is cleared per
  // slot. Struct-of-arrays: the hot loops touch one narrow array each
  // instead of striding over fat records.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> act_epoch_;  // cell transmitted this slot iff == epoch_
  std::vector<Message> act_msg_;          // valid iff act_epoch_ matches
  OrderedBits rx_touched_;                // rx cells touched this slot
  std::vector<std::uint32_t> rx_count_;   // transmitting neighbors, iff touched
  std::vector<const Message*> rx_msg_;    // surviving message, iff touched
  std::vector<std::optional<Message>> row_;  // per-poll scratch, num_channels wide
  FixedDivisor channel_div_;  // num_channels, splits a cell into (node, channel)
  std::vector<std::pair<NodeId, ChannelId>> tx_list_;  // this slot's transmissions
};

}  // namespace radiomc
