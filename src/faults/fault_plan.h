#pragma once

// Deterministic fault injection — the plan half.
//
// The paper's setup phase is built around verification-and-restart so that
// leader election and BFS construction "always succeed" (§3), yet on a
// perfect static network none of that machinery is ever exercised. A
// `FaultPlan` describes what can go wrong and at which rates; compiled
// against a concrete graph and seed it becomes a `FaultSchedule`
// (fault_schedule.h) whose per-slot decisions are a pure function of
// `(seed, plan)` — reproducible across thread counts by construction.
//
// Fault kinds (all off by default; an all-zero plan means "no faults" and
// the engine takes its exact legacy code path):
//
//  * node crashes   — at the first slot of every fault epoch inside the
//    fault window, each alive node crashes with probability `crash_rate`;
//    each crashed node recovers with probability `recover_rate`.
//    `recover_rate == 0` gives crash-stop, > 0 gives crash-recover. A
//    crashed station neither transmits nor receives and its protocol state
//    is frozen (it resumes, stale, on recovery).
//  * link churn     — per undirected edge, the same epoch-level Markov
//    chain with `link_down_rate` / `link_up_rate`. A down link carries
//    nothing in either direction.
//  * jamming        — per (receiver, channel, slot), with probability
//    `jam_prob` background noise kills an otherwise-clean reception; the
//    receiver observes a collision-indistinguishable silence.
//  * message drops  — each delivery (clean or capture-resolved) is lost
//    with probability `drop_prob`, silently.
//
// The window [window_start, window_end) gates fault *onset*: crashes and
// link-downs stop being drawn, and jam/drop draws stop firing, outside the
// window. Healing transitions (recover, link-up) keep running after
// window_end so a bounded fault burst can heal — which is what the
// setup-restart resilience tests rely on.

#include <cstdint>

#include "support/rng_tags.h"

namespace radiomc {

/// Open-ended fault window end.
inline constexpr std::uint64_t kNoSlotLimit = ~0ULL;

// The split tag under which run drivers derive a fault-schedule seed from
// their master stream is `rng_tags::kFaultStream` (support/rng_tags.h):
// large so it can never collide with the small per-station tags
// (`master.split(v)`), and drawn only when a plan is active — fault-free
// runs consume exactly the historical stream. FaultSchedule::for_run is
// the one place that draws it.

struct FaultPlan {
  double crash_rate = 0.0;     ///< per node per epoch, in [0, 1]
  double recover_rate = 0.0;   ///< per crashed node per epoch, in [0, 1]
  double link_down_rate = 0.0; ///< per edge per epoch, in [0, 1]
  double link_up_rate = 0.0;   ///< per down edge per epoch, in [0, 1]
  double jam_prob = 0.0;       ///< per (receiver, channel, slot), in [0, 1]
  double drop_prob = 0.0;      ///< per delivery, in [0, 1]

  /// Length of a fault epoch in slots; crash/link chains step once per
  /// epoch (jam/drop are memoryless per slot and ignore it).
  std::uint64_t epoch_slots = 1024;

  /// Fault onset happens in slots [window_start, window_end) only.
  std::uint64_t window_start = 0;
  std::uint64_t window_end = kNoSlotLimit;

  /// True iff any fault kind has a nonzero rate. An all-zero plan compiles
  /// to a disabled schedule and the engine behaves byte-identically to a
  /// fault-free build.
  bool any() const noexcept {
    return crash_rate > 0.0 || link_down_rate > 0.0 || jam_prob > 0.0 ||
           drop_prob > 0.0;
  }

  /// Throws std::invalid_argument with a specific message when the plan is
  /// contradictory: rates outside [0, 1], a zero-length epoch, a healing
  /// rate without its failure rate, or an empty window.
  void validate() const;
};

/// Structured outcome of a protocol run under faults: `kOk` = completed,
/// `kDegraded` = the progress watchdog fired (partial progress, clean
/// termination instead of a hang), `kFailed` = the slot budget ran out.
enum class RunStatus : std::uint8_t { kOk, kDegraded, kFailed };

const char* to_string(RunStatus s) noexcept;

/// The progress watchdog a run driver arms with its `stall_slots`. After
/// each slot `RadioNetwork::run_until` passes it `stalled(now, progress)`,
/// where `progress` is a measure that only grows (messages at the root,
/// requests served); the watchdog fires once it has not grown for `limit`
/// slots. A zero limit never fires.
class StallWatchdog {
 public:
  StallWatchdog(std::uint64_t limit, std::uint64_t progress,
                std::uint64_t now = 0) noexcept
      : limit_(limit), progress_(progress), since_(now) {}

  bool stalled(std::uint64_t now, std::uint64_t progress) noexcept {
    if (limit_ == 0) return false;
    if (progress > progress_) {
      progress_ = progress;
      since_ = now;
      return false;
    }
    fired_ = now - since_ >= limit_;
    return fired_;
  }

  /// The slot count at which stalled() fires unless progress grows first:
  /// a run may pass idle slots up to it but not beyond. Never, for a zero
  /// limit.
  std::uint64_t deadline() const noexcept {
    return limit_ == 0 || limit_ > kNoSlotLimit - since_ ? kNoSlotLimit
                                                         : since_ + limit_;
  }

  /// The run's outcome: kOk when it completed, kDegraded when the
  /// watchdog stopped it, kFailed when the slot budget ran out.
  RunStatus status(bool completed) const noexcept {
    return completed ? RunStatus::kOk
           : fired_  ? RunStatus::kDegraded
                     : RunStatus::kFailed;
  }

 private:
  std::uint64_t limit_;
  std::uint64_t progress_;
  std::uint64_t since_;
  bool fired_ = false;
};

}  // namespace radiomc
