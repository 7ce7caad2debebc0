#pragma once

// The benchmark's four workloads. Each one generates its inputs from the
// seed, drives the radiomc layers through their public entry points (one
// job at a time, single-threaded), then checks every output once timing has
// stopped.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.h"

namespace perfbench {

/// kTiny shrinks every input so the benchmark's own tests run in seconds.
enum class Size { kFull, kTiny };

struct Options {
  Size size = Size::kFull;
  /// Non-null = traced repeat: layer spans go here and the per-layer
  /// numbers are filled in.
  Tracer* tracer = nullptr;
  /// Test hook: drop one collected message before the exactly-once check,
  /// so a broken check must show up as a failure.
  bool break_check = false;
};

struct RepeatResult {
  double wall_s = 0.0;      ///< input generation to the last check
  double setup_s = 0.0;     ///< graph build + setup (or oracle tree)
  double protocol_s = 0.0;  ///< protocol calls after setup
  std::uint64_t sim_slots = 0;  ///< all simulated slots, setup included
  std::uint64_t attempted = 0;  ///< jobs + messages + arrivals
  std::uint64_t failed = 0;     ///< of those, the ones a check rejected
  std::uint64_t digest = 0;        ///< simulated statistics
  std::uint64_t input_digest = 0;  ///< generated graphs and requests
  std::map<std::string, double> layer;  ///< per-layer metrics, traced only
};

const std::vector<std::string>& workload_names();

/// Per-layer metric names with their units, in report order. A traced
/// repeat fills every one of them (0 where the workload skips the layer).
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Runs one repeat of `workload`. Throws std::invalid_argument on an
/// unknown workload name.
RepeatResult run_workload(const std::string& workload, std::uint64_t seed,
                          const Options& opt);

}  // namespace perfbench
