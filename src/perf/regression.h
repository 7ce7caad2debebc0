#pragma once

// The perf regression gate: diffs two machine-readable performance
// documents — `radiomc.perf/v1` run reports or `radiomc.bench/v1` tables
// (the BENCH_ENGINE.json trajectory) — and decides whether the current
// run regressed past a threshold against the baseline.
//
// Comparison model. Every comparable metric is normalized to
// "bigger-is-better" (throughputs stay as-is; wall times invert), and a
// metric regresses when
//     current < baseline / threshold
// with threshold > 1 (e.g. 2.0 = "flag only a >2x slowdown"). The gate
// starts generous: CI hardware is noisy and shared, so the first job of
// the trajectory is to exist; tightening the threshold is a one-line CI
// change once points accumulate.
//
// Bench tables are matched row-to-row by the composite key of all string
// members plus the integer "n" (topology x size x workload); a baseline
// row with no current counterpart is itself a finding (coverage loss),
// while new rows pass freely (the trajectory may grow).

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/json_value.h"

namespace radiomc::perf {

struct DiffOptions {
  /// Slowdown factor that counts as a regression; must be > 1.
  double threshold = 2.0;
};

struct DiffEntry {
  std::string metric;    ///< e.g. "slots_per_sec[grid/1024/busy]"
  double baseline = 0.0; ///< in the metric's native unit
  double current = 0.0;
  /// current/baseline in bigger-is-better orientation (>1 = improved);
  /// 0 when the metric vanished from the current document.
  double ratio = 0.0;
  bool regressed = false;
};

struct DiffReport {
  bool comparable = false;  ///< schemas recognized and matching
  std::string error;        ///< non-empty iff !comparable
  std::vector<DiffEntry> entries;

  bool any_regression() const noexcept {
    for (const auto& e : entries)
      if (e.regressed) return true;
    return false;
  }
};

/// Diffs two parsed documents of the same schema. Unknown or mismatched
/// schemas yield comparable = false with an explanation, not a throw.
DiffReport diff_reports(const telemetry::JsonValue& baseline,
                        const telemetry::JsonValue& current,
                        const DiffOptions& opt = {});

/// Renders the report as a fixed-width text table (for stdout).
std::string diff_to_text(const DiffReport& r, const DiffOptions& opt);

/// Renders the report as a `radiomc.perfdiff/v1` JSON document.
std::string diff_to_json(const DiffReport& r, const DiffOptions& opt);

}  // namespace radiomc::perf
