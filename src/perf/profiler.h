#pragma once

// In-process profiler: nestable named spans aggregated into a span tree,
// plus free-form counters. The "measure first" layer for the million-node
// engine work — before the slot hot path is rewritten for speed, this is
// what proves a speedup and catches a regression.
//
// Design rules (enforced by the `perf-purity` lint family):
//  * Null-cost when off: every hook takes a `Profiler*` or `Observers`; a
//    null pointer means no clock read, no allocation, no branch beyond it.
//    Simulation output is byte-identical with profiling on or off — time
//    flows out into reports, never back into an Rng or a transmit intent.
//  * Write-only from instrumented code: call sites can open spans and bump
//    counters but the API offers them no way to read elapsed time back,
//    so a driver physically cannot condition protocol behavior on timing.
//  * Offline aggregation: the span tree is read (report(), to JSON) only
//    after the run, by the measurement layer itself.
//
// Spans aggregate structurally: the same name opened under the same parent
// accumulates into one node (count, total/min/max ns), so a span opened
// once per setup attempt or once per service phase stays O(1) memory
// however long the run. The profiler is single-threaded by design — one
// per driver thread; parallel trial runners profile at the driver level
// (the same place their telemetry merges).

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "radio/message.h"
#include "radio/trace.h"
#include "support/stopwatch.h"

namespace radiomc::perf {

/// One aggregated node of the span tree.
struct SpanNode {
  std::string name;
  std::uint64_t count = 0;     ///< completed activations
  std::uint64_t total_ns = 0;  ///< summed inclusive time
  std::uint64_t min_ns = 0;    ///< fastest single activation
  std::uint64_t max_ns = 0;    ///< slowest single activation
  std::vector<std::unique_ptr<SpanNode>> children;  ///< first-open order

  SpanNode* child(std::string_view child_name);
};

class Profiler {
 public:
  Profiler();

  /// Opens a span named `name` nested under the innermost open span.
  /// Prefer the RAII RunSpan or PerfSpan below; begin/end exist for
  /// non-scoped lifetimes (e.g. a span closed by a different callback).
  void begin(std::string_view name);
  /// Closes the innermost open span; unbalanced calls are ignored.
  void end();

  /// Adds `delta` to the free-form counter `name` (e.g. "engine.slots",
  /// "alloc.fallback_paths"). Counters land in the perf report next to the
  /// span tree.
  void count(std::string_view name, std::uint64_t delta = 1);

  /// The synthetic root ("run"); its children are the top-level spans.
  /// total_ns on the root is the time from construction to the last
  /// completed span — read it via report(), not during the run.
  const SpanNode& root() const noexcept { return *root_; }
  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  /// Open (unclosed) span depth, excluding the root. Zero after a
  /// balanced run; a nonzero value in a report marks a driver bug.
  std::size_t open_depth() const noexcept { return stack_.size() - 1; }

  /// Wall nanoseconds since construction.
  std::uint64_t elapsed_ns() const noexcept { return watch_.elapsed_ns(); }
  /// Process CPU nanoseconds since construction.
  std::uint64_t cpu_elapsed_ns() const noexcept {
    return process_cpu_ns() - cpu0_ns_;
  }

 private:
  struct Frame {
    SpanNode* node;
    std::uint64_t start_ns;
  };

  std::unique_ptr<SpanNode> root_;
  std::vector<Frame> stack_;  ///< stack_[0] is the root frame
  std::map<std::string, std::uint64_t> counters_;
  Stopwatch watch_;
  std::uint64_t cpu0_ns_;
};

/// RAII span: opens on construction, closes on destruction; a null profiler
/// disables it (no clock read). For stretches with no single slot clock (a
/// service phase, a trial pool); a run's slot-time stretch is a RunSpan.
class PerfSpan {
 public:
  PerfSpan(Profiler* p, std::string_view name) : p_(p) {
    if (p_ != nullptr) p_->begin(name);
  }
  ~PerfSpan() {
    if (p_ != nullptr) p_->end();
  }
  PerfSpan(const PerfSpan&) = delete;
  PerfSpan& operator=(const PerfSpan&) = delete;

 private:
  Profiler* p_;
};

/// One timed stretch of a run (a setup epoch, a collection drain), recorded
/// once for both observers: close() appends the slot-time span {protocol,
/// name, begin, end, attrs} to the hub's timeline (--metrics-out) and ends
/// the host-time profiler span "<protocol>.<name>" the constructor opened
/// (--perf-out). Both observers null: no clock read, no allocation. Left
/// without close() (early return, exception), it still ends the profiler
/// span and records no timeline span. `protocol` and `name` must outlive
/// the span (drivers pass literals).
class RunSpan {
 public:
  using Attr = std::pair<std::string_view, std::int64_t>;

  RunSpan(const Observers& obs, std::string_view protocol,
          std::string_view name, SlotTime begin);
  ~RunSpan() {
    if (profiler_ != nullptr) profiler_->end();
  }
  RunSpan(const RunSpan&) = delete;
  RunSpan& operator=(const RunSpan&) = delete;

  /// Ends the stretch at slot `end` (one past its last slot). Later calls,
  /// and the destructor, do nothing.
  void close(SlotTime end, std::initializer_list<Attr> attrs = {});

 private:
  TelemetryHub* telemetry_;
  Profiler* profiler_;
  std::string_view protocol_;
  std::string_view name_;
  SlotTime begin_;
};

}  // namespace radiomc::perf
