#pragma once

// The phase timeline: protocols report named spans of slot time so a run
// decomposes the way the paper's analysis does — leader-election epochs,
// BFS levels, verification restarts, collection drains — instead of one
// opaque total. Spans carry small integer attributes (attempt index, level,
// message count) and may nest or overlap freely; the timeline is an append
// log ordered by recording time, not an interval tree. Run drivers record a
// timed stretch through perf::RunSpan, which feeds the profiler too.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "radio/message.h"

namespace radiomc::telemetry {

class JsonWriter;

struct PhaseSpan {
  std::string protocol;  ///< e.g. "setup", "collection", "ranking"
  std::string name;      ///< e.g. "leader_election", "drain"
  SlotTime begin = 0;    ///< first slot of the span
  SlotTime end = 0;      ///< one past the last slot
  std::vector<std::pair<std::string, std::int64_t>> attrs;
};

class PhaseTimeline {
 public:
  /// Appends a completed span.
  void record(PhaseSpan span) { spans_.push_back(std::move(span)); }

  /// Appends every span of `other` in its recording order. Slot times are
  /// kept as recorded — each trial has its own network clock — so callers
  /// that interleave runs should tag spans (see Telemetry::merge).
  void merge(const PhaseTimeline& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  const std::vector<PhaseSpan>& spans() const noexcept { return spans_; }

  /// Writes the JSON array of span objects, in recording order.
  void write_json(JsonWriter& w) const;

 private:
  std::vector<PhaseSpan> spans_;
};

}  // namespace radiomc::telemetry
