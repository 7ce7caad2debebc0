#pragma once

// The randomized single-source broadcast of Bar-Yehuda, Goldreich & Itai
// [3], the building block the paper reuses for its setup phase: every
// informed node runs one Decay invocation per phase; an uninformed node
// that hears the message becomes informed. With a phase budget of
// O(D + log(n/eps)) all nodes are informed with probability 1 - eps.
//
// Relay budget: in BGI a node relays for only k = O(log(n/eps)) Decay
// invocations after it is informed, not until the run ends. A
// FloodStation given a budget of K phases relays in the K phases counted
// from the one in which it was informed (phase 0 for a seeded source; that
// first, possibly partial, phase counts); then it arms nothing, so it
// sleeps for good. Its neighbors then get at least
// K-1 whole phases of its Decay, each of which informs a listener with
// probability > 1/2 (Decay property (2)), so a node stays uninformed with
// probability below 2^-(K-1) and the flood misses some node with
// probability below n 2^-(K-1): K = log2(n/eps) + 1 gives 1 - eps, at
// O(n K) transmissions instead of one Decay per informed node per phase.
//
// Used here as (a) the "success" floods inside the setup phase (§2),
// (b) the naive k-broadcast baseline ("in principle the message can be
// sent using the BFS protocol", §6), and (c) a test vehicle for Decay.
//
// The phase-by-phase Decay bookkeeping is DecayProcess's (decay.h). Every
// FloodStation sleeps on the engine's active set (radio/waker.h); the
// always-polled comparison lives in tests/engine_diff_test.cpp, which runs
// the same stations on the reference engine.

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "protocols/decay.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"

namespace radiomc {

/// Per-node state machine of the BGI flood. Free-running phases of one
/// Decay invocation each; no acks, no level gating (the flood has no tree).
class FloodStation final : public SubStation {
 public:
  /// Relays until the run ends; reset() sets a relay budget.
  FloodStation(std::uint32_t decay_len, Rng rng);

  /// Makes this node the (or a) source: informed from the start.
  void seed(const Message& m);

  /// Clears the flood state, re-seeds the randomness and sets the relay
  /// budget K in phases, 0 = relay until the run ends (setup attempts).
  void reset(Rng rng, std::uint64_t relay_phases);

  /// Keeps the Waker (directly via SingleStation, or through setup's
  /// forwarded handle). Uninformed stations neither transmit nor mutate on
  /// poll, so they sleep until the message front's delivery wakes them; an
  /// informed station sleeps from the slot its Decay dies until the next
  /// phase start, where the flood restarts Decay, and for good once its
  /// relay budget is spent.
  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  bool informed() const noexcept { return informed_; }
  const Message& message() const noexcept { return msg_; }
  /// Slot (station-local time) of first reception; 0 for sources.
  SlotTime informed_at() const noexcept { return informed_at_; }

 private:
  /// True iff the station is informed and its budget covers `phase`.
  bool relays_in(std::uint64_t phase) const noexcept;

  Rng rng_;
  std::uint64_t relay_phases_ = 0;
  bool informed_ = false;
  SlotTime informed_at_ = 0;
  Message msg_;
  DecayProcess decay_;
  Waker* waker_ = nullptr;
};

/// Standalone driver: floods one message from `source` for `phases` phases;
/// reports who was informed when. Every station relays until the run ends
/// (no relay budget), so the naive k-broadcast baseline and
/// `radiomc_sim flood` keep their stream.
struct BgiOutcome {
  SlotTime slots = 0;
  std::uint32_t informed_count = 0;
  std::vector<bool> informed;
  std::vector<SlotTime> informed_at;  ///< meaningful where informed
};
/// `faults`: optional fault plan compiled against the flood network (the
/// phase budget bounds the run, so no watchdog is needed; under faults the
/// informed count simply reports the partial coverage). `observers`: the
/// trace sink and slot hook go on the flood network, and the profiler gets
/// the "flood.slots" and "flood.polls" counters.
BgiOutcome run_bgi_broadcast(const Graph& g, NodeId source,
                             std::uint64_t phases, std::uint64_t seed,
                             const FaultPlan& faults = {},
                             const Observers& observers = {});

}  // namespace radiomc
