#pragma once

// Filesystem front end for radiomc_lint: loads a source tree into
// SourceFiles and renders findings as text or as the
// `radiomc.lint/v2` JSON report CI uploads as an artifact.

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/rules.h"

namespace radiomc::lint {

/// Recursively collects C++ sources (*.h, *.hpp, *.cpp, *.cc) under each
/// root (a root may also be a single file). Build trees (any directory
/// whose name starts with "build"), hidden directories and third_party/
/// are skipped. Files are returned sorted by path so runs are
/// byte-identical regardless of directory enumeration order.
std::vector<SourceFile> load_tree(const std::vector<std::string>& roots);

/// Reads a whole file into `*out`; false if it cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// Human-readable findings, one per line: `file:line: [rule] message`.
/// Waived findings are prefixed with "waived" and the reason.
void print_findings(std::ostream& os, const std::vector<Finding>& findings,
                    bool show_waived);

/// The machine-readable report (schema "radiomc.lint/v2"): findings plus
/// the rng_streams and layers sections and a footer with scan
/// counts and wall time. `wall_ms` is measured by the caller (the CLI) —
/// src/lint itself never reads a clock, the same discipline the
/// no-wall-clock rule enforces on src/.
void write_json_report(std::ostream& os, const AnalysisResult& result,
                       double wall_ms);

}  // namespace radiomc::lint
