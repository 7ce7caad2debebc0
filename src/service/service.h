#pragma once

// The continuous-traffic service driver: §4 collection run as a long-lived
// open-loop server instead of a closed batch.
//
// Each phase the configured ArrivalProcess produces a batch of new
// messages; the AdmissionController compares the target BFS level's
// start-of-phase queue depth against the Hsu–Burke envelope and admits,
// defers, or sheds each one; admitted messages are injected at their
// origin stations and climb the tree under the unmodified §4 collection
// protocol. Idle collection stations sleep (collection.h) and an injected
// arrival wakes its station, so a long soak spends polls only where there
// is traffic. The driver keeps the telemetry registry current *every phase*
// (arrival/admission/delivery counters, in-system and ingress-backlog
// gauges, per-level queue-depth distributions), so a SnapshotStreamer
// installed as the slot hook turns a soak into a live radiomc.snap/v1
// stream — the PR 6 spine this mode was built for.
//
// Everything is a pure function of (graph, tree, config, seed): arrivals
// come from a dedicated split stream, station randomness from per-node
// splits, and the fault stream is derived only when a plan is active — the
// same byte-identical discipline as every bounded driver in this tree.
//
// With `bernoulli:lambda` arrivals and admission off this is the §4.3
// open-system measurement behind E15: the stationary population and
// sojourn the Theorem 4.15 tandem must dominate.
//
// Certification of a finished run (throughput / sojourn / exactly-once
// verdicts against the Theorem 4.15 closed forms) lives in
// service/certify.h.

#include <cstdint>
#include <string>

#include "faults/fault_plan.h"
#include "graph/graph.h"
#include "protocols/collection.h"
#include "protocols/tree.h"
#include "radio/trace.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "support/stats.h"
#include "telemetry/telemetry.h"

namespace radiomc::health {
class Monitor;  // src/health/monitor.h; forward-declared so no service
                // header includes it — observers are wired, never read back
}  // namespace radiomc::health

namespace radiomc::service {

/// Where the driver places each new message.
enum class ArrivalPlacement {
  kDeepestLevel,  ///< arrivals at max-level nodes (the models' node D)
  kUniform,       ///< arrivals at uniform random non-root nodes
};

struct ServeConfig {
  ArrivalSpec arrival;
  AdmissionConfig admission;

  /// Measured horizon in phases (after warmup); must be > 0.
  std::uint64_t phases = 20'000;
  /// Phases discarded before population/sojourn statistics start.
  std::uint64_t warmup_phases = 2'000;
  ArrivalPlacement placement = ArrivalPlacement::kDeepestLevel;

  /// Remark 3 duplicate guard on every station: under fault plans an ack
  /// can be lost and a child retransmits a message its parent already
  /// accepted; the guard keeps root delivery exactly-once, which the soak
  /// certification asserts. On by default — a service owes its clients
  /// exactly-once, not the paper's cleanest model.
  bool dedup_guard = true;

  FaultPlan faults;

  /// Optional observability; the driver never reads any of it.
  telemetry::Telemetry* telemetry = nullptr;
  perf::Profiler* profiler = nullptr;
  SlotHook* slot_hook = nullptr;
  /// Online health monitor (src/health/): when set, the driver installs
  /// its flight recorder as the network's trace sink and feeds it one
  /// PhaseSample per completed phase. When null, no sink is installed and
  /// the run is byte-identical to a health-free build.
  health::Monitor* health = nullptr;

  /// Throws std::invalid_argument on a contradictory config (zero measured
  /// horizon, bad arrival spec or admission config).
  void validate() const;
};

struct ServeOutcome {
  std::uint64_t phases = 0;  ///< measured phases (excludes warmup)
  std::uint64_t slots = 0;   ///< total engine slots including warmup

  // Arrival/admission counters over the measured horizon.
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;  ///< defer events (one per held phase)
  std::uint64_t shed = 0;
  std::uint64_t delivered = 0;
  /// Root deliveries carrying an (origin, seq) already delivered (or never
  /// injected): exactly-once violations. Zero with the dedup guard on.
  std::uint64_t duplicates = 0;

  /// In-network population sampled at measured phase starts.
  OnlineStats population;
  /// Per delivered message: phases from arrival (not admission) to root.
  OnlineStats sojourn_phases;

  /// Deepest start-of-phase queue depth any single BFS level reached.
  std::uint64_t peak_level_depth = 0;
  /// The admission controller's per-level envelope, for reports.
  double level_envelope = 0.0;
  /// Messages still in the network (admitted, undelivered) at the end.
  std::uint64_t backlog = 0;
  /// Arrivals still held by the defer policy at the end.
  std::uint64_t defer_backlog = 0;

  /// Engine on_slot invocations: idle collection stations sleep
  /// (collection.h), so a long soak costs few polls per phase.
  std::uint64_t engine_polls = 0;

  /// kOk, or kDegraded when the run shed/deferred traffic, delivered a
  /// duplicate, or saw a level exceed twice the admission envelope.
  RunStatus status = RunStatus::kOk;
};

/// Runs the service for warmup + phases collection phases and reports the
/// measured open-system behavior. `tree` must be a BFS tree of `g`.
ServeOutcome run_service(const Graph& g, const BfsTree& tree,
                         const ServeConfig& cfg, std::uint64_t seed);

/// The `radiomc_sim serve` flag-pairing contract, shared with the CLI so
/// the error-path tests and the tool reject identically (the --trace-agg
/// convention: a flag whose meaning depends on an absent partner is a hard
/// error, never a silent no-op). Throws std::invalid_argument with a
/// specific message. `has_horizon` = --slots or --phases given;
/// `both_horizons` = both given at once.
void validate_serve_flags(bool has_certify, bool has_horizon,
                          bool both_horizons, bool has_soak_out,
                          bool has_margin, bool has_sojourn_multiple,
                          bool has_envelope, bool has_admission);

}  // namespace radiomc::service
