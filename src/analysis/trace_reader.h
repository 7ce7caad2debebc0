#pragma once

// Parser for `radiomc.trace/v2` JSONL streams (the format written by
// telemetry::JsonlTraceSink) into the typed Trace of trace_event.h.
//
// The reader is strict about what matters and lenient about the rest:
//  * the first line MUST be a schema record with the exact version string
//    — a stream written by a different schema generation is rejected, not
//    guessed at;
//  * unknown keys on known records are ignored (the writer may grow
//    fields), but unknown "ev" values and malformed JSON are errors with a
//    line number, because a partially-understood trace would silently
//    corrupt every downstream statistic.
//
// Each line is parsed by telemetry::parse_json, the repo's one JSON reader.
// A known key holding the wrong type, or a number that is negative,
// fractional or too large for its field, is an error too.

#include <istream>
#include <string>

#include "analysis/trace_event.h"

namespace radiomc::analysis {

struct TraceReadResult {
  bool ok = false;
  std::string error;      ///< non-empty iff !ok
  std::uint64_t line_no = 0;  ///< 1-based line of the error (0 = file-level)
  Trace trace;            ///< valid iff ok
};

/// Parses a whole stream. Blank lines are permitted and skipped.
TraceReadResult read_trace(std::istream& in);

/// Opens `path` and parses it; a missing/unreadable file is a file-level
/// error, not an exception.
TraceReadResult read_trace_file(const std::string& path);

}  // namespace radiomc::analysis
