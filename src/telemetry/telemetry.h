#pragma once

// The Telemetry aggregate threaded (optionally, as a raw pointer) through
// protocol configs and run drivers. One object per logical run: the CLI
// creates one and hands it to setup + the command's protocol, so the
// emitted document holds the whole story — engine counters, per-phase
// spans, per-level queue histograms — in one file.
//
// Everything is pull/append only: a null Telemetry* costs one branch, and
// no protocol may base decisions on it (same rule as TraceSink).

#include <string>

#include "radio/network.h"
#include "telemetry/metrics.h"
#include "telemetry/phase_timeline.h"

namespace radiomc::telemetry {

struct Telemetry {
  MetricsRegistry metrics;
  PhaseTimeline timeline;

  /// Folds a per-trial hub into this one: metrics merge series-by-series
  /// and the trial's spans are appended (tagged with a {"trial", trial}
  /// attribute when `trial >= 0`, since each trial restarts its slot
  /// clock at 0). Merging trials 0..n-1 in trial order yields the same
  /// document regardless of how many threads ran them — the aggregation
  /// half of the deterministic trial-runner contract (support/parallel.h).
  void merge(const Telemetry& other, std::int64_t trial = -1);

  /// {"schema":"radiomc.telemetry/v1","metrics":{...},"phases":[...]}
  std::string to_json() const;

  /// Writes `to_json()` plus a trailing newline; returns false on I/O
  /// failure (path not writable).
  bool write_json_file(const std::string& path) const;
};

/// Publishes the engine's aggregate counters into `reg` under
/// "engine.slots", "engine.transmissions", "engine.deliveries",
/// "engine.collisions" and "engine.capture_deliveries", labeled with
/// {"protocol": protocol} so multiple networks (setup + the main run) can
/// share a registry. Counters accumulate across calls with equal labels.
void publish_net_metrics(const NetMetrics& m, MetricsRegistry& reg,
                         const std::string& protocol);

/// Publishes a fault schedule's transition totals as "faults.events"
/// counters labeled {"protocol": protocol, "kind": crash|recover|
/// link_down|link_up}, plus the engine's fault counters as
/// "engine.fault_jams" / "engine.fault_drops" / "engine.fault_link_blocked"
/// / "engine.fault_crashed_slots". Only nonzero values create series, so a
/// fault-free run's document stays byte-identical to a pre-fault build.
void publish_fault_metrics(const FaultSchedule& faults, const NetMetrics& m,
                           MetricsRegistry& reg, const std::string& protocol);

/// publish_fault_metrics plus the run's "faults" span: one span over
/// [0, slots) named `protocol`, carrying the crash/recovery/link-down
/// totals, the jam and drop counts and whether the watchdog degraded the
/// run. A no-op for a disabled schedule.
void publish_fault_run(Telemetry& tel, const FaultSchedule& faults,
                       const NetMetrics& m, const std::string& protocol,
                       SlotTime slots, RunStatus status);

}  // namespace radiomc::telemetry
