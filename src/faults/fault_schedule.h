#pragma once

// Deterministic fault injection — the schedule half.
//
// A `FaultSchedule` compiles a `FaultPlan` against a concrete graph and
// seed. Its determinism contract mirrors the trial-runner's (see
// docs/PROTOCOLS.md, "Deterministic parallel trials"):
//
//  * At construction, one private key per fault kind is derived from
//    `Rng(seed)` via `Rng::split` with fixed tags, in a fixed order.
//  * Memoryless decisions (jam, drop) are pure hashes of
//    (kind key, entity, slot) — query order cannot affect them.
//  * Stateful decisions (crash/recover, link down/up) are epoch-level
//    Markov chains whose per-epoch transition draws are pure hashes of
//    (kind key, entity, epoch index); `begin_slot(t)` applies every epoch
//    boundary up to `t` exactly once, in epoch order, regardless of how
//    the caller's slots are batched.
//
// A schedule is therefore a pure function of `(seed, plan, graph)`:
// byte-identical under any `--jobs`, and two schedules built from the same
// triple answer every query identically.
//
// Run drivers build theirs with `FaultSchedule::for_run` and hand it to the
// engine through `RadioNetwork::set_faults` (non-owning, like `set_trace`);
// `enabled() == false` (default-constructed, or an all-zero plan) makes the
// hook free.

#include <cstdint>
#include <vector>

#include "faults/fault_plan.h"
#include "graph/graph.h"

namespace radiomc {

class Rng;

class FaultSchedule {
 public:
  /// Transition totals, maintained as epochs are applied. Used by
  /// telemetry ("faults.events" counters per kind) and tests.
  struct Stats {
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t link_downs = 0;
    std::uint64_t link_ups = 0;
  };

  /// Disabled schedule: every query reports "no fault".
  FaultSchedule() = default;

  /// Compiles `plan` (validated here) against `g`. The graph must outlive
  /// the schedule. An all-zero plan yields a disabled schedule.
  FaultSchedule(const Graph& g, const FaultPlan& plan, std::uint64_t seed);

  /// A run driver's schedule: `plan` compiled with the seed
  /// `master.split(rng_tags::kFaultStream).next()`, or a disabled schedule
  /// that draws nothing from `master` when the plan is all-zero, so a
  /// fault-free run consumes exactly the historical stream. Call it where
  /// the driver's stream order places the fault draw.
  static FaultSchedule for_run(const Graph& g, const FaultPlan& plan,
                               Rng& master);

  bool enabled() const noexcept { return enabled_; }
  const FaultPlan& plan() const noexcept { return plan_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Applies every crash/link epoch boundary up to and including slot `t`.
  /// The engine calls this once per slot with monotone `t`; jumps forward
  /// are fine (all skipped boundaries are applied in order).
  void begin_slot(std::uint64_t t);

  bool node_alive(NodeId v) const noexcept {
    return alive_.empty() || alive_[v] != 0;
  }

  /// Number of currently-crashed nodes (0 when crash faults are off).
  /// Maintained incrementally at epoch boundaries so the engine can charge
  /// fault_crashed_slots per slot without scanning all n stations.
  NodeId num_crashed() const noexcept { return crashed_; }

  /// Is the edge to the `k`-th neighbor of `u` (index into
  /// `graph.neighbors(u)`) up? Undirected: a down edge blocks both
  /// directions.
  bool link_up(NodeId u, std::size_t k) const noexcept {
    return link_state_.empty() || link_state_[edge_id_[offset_[u] + k]] != 0;
  }

  /// Background noise at (receiver `v`, channel, slot `t`) that kills an
  /// otherwise-clean reception. Pure per-slot draw.
  bool jammed(std::uint64_t t, NodeId v, std::uint32_t channel) const noexcept;

  /// Loss of an otherwise-successful delivery. Pure per-slot draw.
  bool dropped(std::uint64_t t, NodeId v, std::uint32_t channel) const noexcept;

 private:
  void apply_epoch(std::uint64_t e);
  bool onset_active(std::uint64_t slot) const noexcept {
    return slot >= plan_.window_start && slot < plan_.window_end;
  }

  bool enabled_ = false;
  FaultPlan plan_;
  Stats stats_;

  std::uint64_t crash_key_ = 0, recover_key_ = 0;
  std::uint64_t link_down_key_ = 0, link_up_key_ = 0;
  std::uint64_t jam_key_ = 0, drop_key_ = 0;

  std::vector<std::uint8_t> alive_;       // per node; empty = all alive
  NodeId crashed_ = 0;                    // count of zeros in alive_
  std::vector<std::uint8_t> link_state_;  // per undirected edge; empty = up
  std::vector<std::size_t> offset_;       // CSR offsets mirroring the graph
  std::vector<std::uint32_t> edge_id_;    // adjacency-aligned edge ids
  std::uint64_t next_epoch_ = 0;
};

}  // namespace radiomc
